"""Probe-based detection of interest profiling in search-engine adverts."""

from .corpus import CategorySet, LabeledAdvert, SessionTrace
from .detector import DetectorConfig, calibrate, classify_probe, detect_session
from .estimator import PriModel, save_model, score, train
from .runner import CampaignConfig, run_campaign, run_session
from .textproc import TermFilter, filter_terms, tokenize

__version__ = "0.1.0"

__all__ = [
    "CategorySet",
    "LabeledAdvert",
    "SessionTrace",
    "DetectorConfig",
    "calibrate",
    "classify_probe",
    "detect_session",
    "PriModel",
    "save_model",
    "score",
    "train",
    "CampaignConfig",
    "run_campaign",
    "run_session",
    "TermFilter",
    "filter_terms",
    "tokenize",
    "__version__",
]
