"""Suffix-stripping stemmer for English query and advert text.

This is the classic five-step Porter algorithm with two of the author's
later amendments folded in ("bli" -> "ble", "logi" -> "log").  One rule is
deliberately more aggressive than the original: "-ment" is stripped from
any stem of measure >= 1 rather than > 1, so that "treatment" and "treats"
collapse to the same stem ("treat").  Words ending in "-ement" are still
handled by the untouched "ement" rule and are unaffected by the relaxation.

``stem`` is meant for the lowercase ``[a-z0-9]`` tokens that
``pri.textproc.tokenize`` yields.  Every letter other than a, e, i, o and u
is a consonant, except that a "y" after a consonant is a vowel.

Each word state carries its consonant/vowel form, a string of "c" and "v"
as long as the word, computed once: one ``str.translate`` of the token,
then, only when the token holds a "y", a pass that settles each y from the
letter before it.  A letter's
class depends only on the letters before it, so the form of a stem is a
prefix of the word's form, and a rule that swaps a suffix extends that
prefix with its replacement's fixed form (no replacement holds a "y").
The measure m of a stem, its number of vowel-consonant transitions in the
[C](VC)^m[V] reading, is then ``form.count("vc", 0, n)``, and the stem has
a vowel when ``"v" in form[:n]``.
"""

from __future__ import annotations

# a..z: vowels to "v", y to "y" for the pass that resolves it, and every
# other letter to "c".
_FORM = str.maketrans("abcdefghijklmnopqrstuvwxyz",
                      "vcccvcccvcccccvcccccvcccyc")


def _ends_cvc(word: str, form: str, n: int) -> bool:
    """Whether word[:n] ends consonant-vowel-consonant, the last letter not
    w, x or y."""
    return form.endswith("cvc", 0, n) and word[n - 1] not in "wxy"


# (suffix, replacement, replacement's form, minimum measure of the stem)
_Rule = tuple[str, str, str, int]


def _by_final_letter(
    rules: tuple[tuple[str, str, int], ...]
) -> dict[str, tuple[_Rule, ...]]:
    """Index a rule table by the last letter of its suffixes, longest first.

    Only rules ending in a word's last letter can match it, and sorting is
    stable, so scanning one bucket finds the same rule as scanning the whole
    table longest first.
    """
    index: dict[str, list[_Rule]] = {}
    for suffix, replacement, min_m in sorted(rules, key=lambda r: -len(r[0])):
        index.setdefault(suffix[-1], []).append(
            (suffix, replacement, replacement.translate(_FORM), min_m))
    return {letter: tuple(bucket) for letter, bucket in index.items()}


_STEP2_RULES = _by_final_letter((
    ("ational", "ate", 1),
    ("tional", "tion", 1),
    ("enci", "ence", 1),
    ("anci", "ance", 1),
    ("izer", "ize", 1),
    ("bli", "ble", 1),
    ("alli", "al", 1),
    ("entli", "ent", 1),
    ("eli", "e", 1),
    ("ousli", "ous", 1),
    ("ization", "ize", 1),
    ("ation", "ate", 1),
    ("ator", "ate", 1),
    ("alism", "al", 1),
    ("iveness", "ive", 1),
    ("fulness", "ful", 1),
    ("ousness", "ous", 1),
    ("aliti", "al", 1),
    ("iviti", "ive", 1),
    ("biliti", "ble", 1),
    ("logi", "log", 1),
))

_STEP3_RULES = _by_final_letter((
    ("icate", "ic", 1),
    ("ative", "", 1),
    ("alize", "al", 1),
    ("iciti", "ic", 1),
    ("ical", "ic", 1),
    ("ful", "", 1),
    ("ness", "", 1),
))

_STEP4_RULES = _by_final_letter((
    ("al", "", 2),
    ("ance", "", 2),
    ("ence", "", 2),
    ("er", "", 2),
    ("ic", "", 2),
    ("able", "", 2),
    ("ible", "", 2),
    ("ant", "", 2),
    ("ement", "", 2),
    ("ment", "", 1),  # relaxed: see module docstring
    ("ent", "", 2),
    ("ou", "", 2),
    ("ism", "", 2),
    ("ate", "", 2),
    ("iti", "", 2),
    ("ous", "", 2),
    ("ive", "", 2),
    ("ize", "", 2),
))


def stem(word: str) -> str:
    """Stem a single lowercase token.

    Tokens of length one or two are returned unchanged, as are tokens that
    contain digits (model numbers, amounts and the like are left alone).
    """
    if len(word) <= 2 or (not word.isalpha()
                          and any(ch.isdigit() for ch in word)):
        return word
    # The steps run inline on (word, form): this is the text path's
    # per-token kernel, and each rule keeps the two the same length.
    form = word.translate(_FORM)
    if "y" in form:
        # A leading y is a consonant and any later y the opposite of the
        # letter before it; each round settles the first y of every run.
        if form[0] == "y":
            form = "c" + form[1:]
        while "y" in form:
            form = form.replace("vy", "vc").replace("cy", "cv")

    # Step 1a: plurals.
    if word[-1] == "s":
        if word.endswith(("sses", "ies")):
            word, form = word[:-2], form[:-2]
        elif not word.endswith("ss"):
            word, form = word[:-1], form[:-1]

    # Step 1b: -eed, or -ed / -ing left of which a vowel stands, then a
    # tidy-up of what -ed / -ing leave.
    if word.endswith("eed"):
        if form.count("vc", 0, len(word) - 3):
            word, form = word[:-1], form[:-1]
    else:
        if word.endswith("ed") and "v" in form[:-2]:
            cut = 2
        elif word.endswith("ing") and "v" in form[:-3]:
            cut = 3
        else:
            cut = 0
        if cut:
            word, form = word[:-cut], form[:-cut]
            if word.endswith(("at", "bl", "iz")):
                word, form = word + "e", form + "v"
            elif (word[-1] == word[-2:-1] and form[-1] == "c"
                    and word[-1] not in "lsz"):
                word, form = word[:-1], form[:-1]
            elif form.count("vc") == 1 and _ends_cvc(word, form, len(word)):
                word, form = word + "e", form + "v"

    # Step 1c: a final y -> i when a vowel stands before it.
    if word[-1] == "y" and "v" in form[:-1]:
        word, form = word[:-1] + "i", form[:-1] + "v"

    # Steps 2 and 3: the longest matching suffix owns the word, and is
    # replaced only when its stem clears the measure bar.
    for rules in (_STEP2_RULES, _STEP3_RULES):
        for suffix, replacement, replacement_form, min_m in rules.get(
                word[-1], ()):
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if form.count("vc", 0, n) >= min_m:
                    word = word[:n] + replacement
                    form = form[:n] + replacement_form
                break

    # Step 4: "ion" only counts as a suffix after s or t, so it sits outside
    # the table (no table suffix can match an "ion" word anyway).  Every
    # table rule here deletes its suffix.
    if word.endswith("ion"):
        if word[-4:-3] in ("s", "t") and form.count("vc", 0, len(word) - 3) > 1:
            word, form = word[:-3], form[:-3]
    else:
        for suffix, _, _, min_m in _STEP4_RULES.get(word[-1], ()):
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if form.count("vc", 0, n) >= min_m:
                    word, form = word[:n], form[:n]
                break

    # Step 5: drop a final e, then undouble a final ll, on long enough stems.
    if word[-1] == "e":
        n = len(word) - 1
        m = form.count("vc", 0, n)
        if m > 1 or (m == 1 and not _ends_cvc(word, form, n)):
            word, form = word[:n], form[:n]
    if word.endswith("ll") and form.count("vc") > 1:
        return word[:-1]
    return word
