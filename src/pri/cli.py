"""Command-line surface.

Every subcommand is a thin wrapper over the library: parse flags, read
files, call one pipeline function, format the result.  Exit codes: 0
success, 1 usage problem, 2 invalid input data, 3 unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, read_lines, typed_settings
from .corpus import CategorySet, parse_capture, parse_corpus, save_capture
from .detector import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_SIGMA_MULTIPLIER,
    DetectorConfig,
    calibrate,
    parse_baselines,
)
from .errors import UsageError, ValidationError
from .estimator import parse_model, save_model, score, train
from .probes import (
    DEFAULT_MIN_RATIO,
    DEFAULT_PROBES,
    default_ambiguity_report,
    extract_candidates,
    parse_ambiguity_csv,
    select_probe,
)
from .reports import (
    csv_text,
    percent,
    render_csv,
    render_detections,
    render_text,
    write_bundle,
)
from .runner import (
    DEFAULT_ENGINE,
    DEFAULT_PROBE,
    DEFAULT_TEST_SESSIONS,
    DEFAULT_TRAIN_SESSIONS,
    CampaignConfig,
    evaluate_capture,
    run_campaign,
    run_session,
)
from .scripts import MIN_PROBES, CategoryKeywords, load_default_keywords, parse_script
from .simulator import EngineTables, build_ad_pools, load_engine_config, new_engine


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the package error types."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _list_flag(value: str, flag: str, sep: str = ",") -> tuple[str, ...]:
    """The nonblank entries of a list flag, which must name at least one."""
    items = tuple(part.strip() for part in value.split(sep) if part.strip())
    if not items:
        raise UsageError(f"{flag} names no entries")
    return items


def _on_off(value: str) -> bool:
    """Type of the ``--clicks`` flags and the ``clicks`` setting."""
    lowered = value.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"must be on or off, not {value!r}")


def _given(**values) -> dict:
    """The settings that were set; the config classes hold the defaults."""
    return {key: value for key, value in values.items() if value is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    lines = read_lines(args.corpus)
    if args.categories:
        categories = CategorySet(_list_flag(args.categories, "--categories"),
                                 args.catchall)
        corpus = parse_corpus(lines, categories)
    else:
        corpus = parse_corpus(lines)
        labels = {advert.label for advert in corpus} - {args.catchall}
        categories = CategorySet(tuple(sorted(labels)), args.catchall)
    model = train(corpus, categories)
    save_model(model, args.out)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    model = parse_model(read_lines(args.model))
    traces = parse_capture(read_lines(args.capture))

    def rows():
        for trace in traces:
            for interaction in trace.interactions:
                vector = score(model, interaction.page.adverts)
                for category in model.categories.all_labels:
                    yield (trace.session_id, interaction.step, category,
                           repr(vector.value(category)))

    _emit(csv_text(("session", "step", "category", "score"), rows()), args.out)
    return 0


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(**_given(sigma_multiplier=args.sigma_multiplier,
                                   session_probe_count=args.probe_count))


def cmd_detect(args: argparse.Namespace) -> int:
    model = parse_model(read_lines(args.model))
    traces = parse_capture(read_lines(args.capture))
    if args.baselines:
        baseline = parse_baselines(read_lines(args.baselines))
    else:
        baseline = calibrate(model, parse_capture(read_lines(args.calibrate)))
    evaluation = evaluate_capture(model, baseline, traces,
                                  _detector_config(args))
    _emit(render_detections(evaluation), args.out)
    return 0


def cmd_probe_select(args: argparse.Namespace) -> int:
    if args.capture and args.topics:
        raise UsageError("--capture and --topics are separate modes; pick one")
    if args.capture:
        traces = parse_capture(read_lines(args.capture))
        pages = [it.page for trace in traces for it in trace.interactions]
        candidates = extract_candidates(pages, top_k=args.top)
        _emit(csv_text(("rank", "term", "tf"),
                       [(rank, term, tf) for rank, (term, tf)
                        in enumerate(candidates, start=1)]), args.out)
        return 0
    if args.topics:
        topics = _list_flag(args.topics, "--topics")
        if args.ambiguity:
            report = parse_ambiguity_csv(read_lines(args.ambiguity))
        else:
            report = default_ambiguity_report()
        probes = (_list_flag(args.probes, "--probes", ";") if args.probes
                  else DEFAULT_PROBES)
        chosen = select_probe(probes, report, topics,
                              min_ratio=args.min_ratio,
                              keywords=load_default_keywords())
        _emit(chosen + "\n", args.out)
        return 0
    raise UsageError("probe-select needs --capture (rank candidate terms) "
                     "or --topics (choose a probe for a topic group)")


def cmd_simulate(args: argparse.Namespace) -> int:
    script = parse_script(read_lines(args.script))
    if not script.topic:
        raise ValidationError(
            f"script {args.script!r} names no topic; add a '! topic:' line")
    keywords = load_default_keywords()
    categories = CategorySet(tuple(sorted(keywords)), args.catchall)
    tables = EngineTables(load_engine_config(args.engine),
                          build_ad_pools(keywords, args.catchall), categories)
    session_id = args.session_id or f"sim-{script.topic}-00"
    if script.topic not in categories:
        raise ValidationError(f"session {session_id}: topic {script.topic!r} "
                              "is not an engine category")
    engine = new_engine(tables, args.seed)
    clicks = None
    if args.clicks and script.keywords:
        clicks = CategoryKeywords(script.topic, script.keywords)
    trace = run_session(engine, script, clicks, session_id)
    save_capture([trace], args.out)
    return 0


# campaign --config key -> (the flag that overrides it, that flag's type)
_CAMPAIGN_SETTINGS = {
    "engine": ("engine", str),
    "train_sessions_per_topic": ("train", int),
    "test_sessions_per_topic": ("test", int),
    "probe": ("probe", str),
    "clicks": ("clicks", _on_off),
    "sigma_multiplier": ("sigma_multiplier", float),
    "session_probe_count": ("probe_count", int),
}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill each flag left unset from --config, converted by the flag's type."""
    types = {key: convert for key, (_, convert) in _CAMPAIGN_SETTINGS.items()}
    settings = typed_settings(load_config(args.config), types, args.config,
                              "campaign")
    for key, value in settings.items():
        attribute = _CAMPAIGN_SETTINGS[key][0]
        if getattr(args, attribute) is None:
            setattr(args, attribute, value)


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.config:
        _apply_config_file(args)
    engine = load_engine_config(DEFAULT_ENGINE if args.engine is None
                                else args.engine)
    if args.adaptation_lag is not None:
        engine = engine.replace(adaptation_lag=args.adaptation_lag)
    config = CampaignConfig(
        engine=engine,
        detector=_detector_config(args),
        **_given(train_sessions_per_topic=args.train,
                 test_sessions_per_topic=args.test,
                 probe=args.probe,
                 clicks_enabled=args.clicks),
    )
    result = run_campaign(config, master_seed=args.seed)
    paths = write_bundle(result, args.out)
    evaluation = result.evaluation
    sys.stdout.write(
        f"sensitive detection rate: {percent(evaluation.sensitive_rate)}\n"
        f"false positive rate: {percent(evaluation.false_positive_rate)}\n"
        f"wrote {len(paths)} files under {args.out}\n"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    model = parse_model(read_lines(args.model))
    baseline = parse_baselines(read_lines(args.baselines))
    traces = parse_capture(read_lines(args.capture))
    if not traces:
        raise ValidationError(f"capture {args.capture!r} holds no sessions")
    evaluation = evaluate_capture(model, baseline, traces,
                                  _detector_config(args))
    render = render_csv if args.format == "csv" else render_text
    _emit(render(evaluation), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma-multiplier", type=float, default=None,
                        help="interval half-width in sigmas (default "
                             f"{DEFAULT_SIGMA_MULTIPLIER:g})")
    parser.add_argument("--probe-count", type=int, default=None,
                        help="probes per detection session (default "
                             f"{DEFAULT_PROBE_COUNT}; at most "
                             f"{MIN_PROBES} for a campaign)")


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True,
                   help="label<TAB>advert text file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--categories", default=None,
                   help="comma-separated sensitive labels "
                        "(default: every corpus label except the catch-all)")
    p.add_argument("--catchall", default="other")
    p.set_defaults(func=cmd_train)


def _score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--capture", required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_score)


def _detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--capture", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--baselines", help="calibrated baselines file")
    source.add_argument("--calibrate",
                        help="training capture to calibrate baselines from")
    _add_detector_flags(p)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_detect)


def _probe_select_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capture", default=None,
                   help="rank the most frequent page terms in this capture")
    p.add_argument("--top", type=int, default=10,
                   help="candidates to list (default 10)")
    p.add_argument("--topics", default=None,
                   help="comma-separated topic group to choose a probe for")
    p.add_argument("--probes", default=None,
                   help="semicolon-separated candidate probes "
                        "(default: the bundled pair)")
    p.add_argument("--ambiguity", default=None,
                   help="ambiguity CSV (default: bundled survey data)")
    p.add_argument("--min-ratio", type=float, default=DEFAULT_MIN_RATIO,
                   help="minimum acceptable result-ratio per topic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe_select)


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--script", required=True, help="query script file")
    p.add_argument("--engine", required=True,
                   help="engine preset name (google_like, bing_like) "
                        "or a settings file path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--session-id", default=None)
    p.add_argument("--clicks", type=_on_off, default="on",
                   help="on|off (default on)")
    p.add_argument("--catchall", default="other")
    p.add_argument("--out", required=True, help="capture file to write")
    p.set_defaults(func=cmd_simulate)


def _campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True,
                   help="master seed every session derives from")
    p.add_argument("--out", required=True, help="directory for the artifacts")
    p.add_argument("--config", default=None,
                   help="key = value settings file (flags override it)")
    p.add_argument("--engine", default=None,
                   help="engine preset name or settings file "
                        f"(default {DEFAULT_ENGINE})")
    p.add_argument("--adaptation-lag", type=int, default=None,
                   help="override the engine's update delay")
    p.add_argument("--train", type=int, default=None,
                   help="training sessions per topic (default "
                        f"{DEFAULT_TRAIN_SESSIONS})")
    p.add_argument("--test", type=int, default=None,
                   help="test sessions per topic (default "
                        f"{DEFAULT_TEST_SESSIONS})")
    p.add_argument("--clicks", type=_on_off, default=None,
                   help="on|off (default on)")
    p.add_argument("--probe", default=None,
                   help=f"probe query (default {DEFAULT_PROBE!r}); one that "
                        "shares a keyword term with any topic is refused "
                        "(exit 2), as the bundled 'help and advice' is")
    _add_detector_flags(p)
    p.set_defaults(func=cmd_campaign)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--baselines", required=True)
    p.add_argument("--capture", required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    _add_detector_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)


# subcommand -> (its help line, the function that adds its flags)
_SUBCOMMANDS = {
    "train": ("train a term-frequency model on a corpus", _train_flags),
    "score": ("score every page of a capture", _score_flags),
    "detect": ("flag sensitive sessions in a capture", _detect_flags),
    "probe-select": ("rank candidate probe terms, or choose a probe for a "
                     "topic group", _probe_select_flags),
    "simulate": ("run one scripted session against a simulated engine",
                 _simulate_flags),
    "campaign": ("train, calibrate, and evaluate a full multi-session "
                 "experiment", _campaign_flags),
    "report": ("render detection tables for a capture", _report_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``pri`` parser, with every subcommand, or with only ``command``:
    a command line that names its subcommand first reads no other's flags."""
    parser = _Parser(
        prog="pri",
        description="Measure what a search engine has learned about a user "
                    "from the adverts it serves.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_line, add_flags) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS
                              else None)
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            print("error: no subcommand given", file=sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
