"""The campaign service: a long-running, multi-tenant injection daemon.

The campaign store made sweeps durable and resumable; this package makes
them *servable*.  A single asyncio HTTP/JSON daemon accepts campaign
submissions from many concurrent tenants, schedules them with weighted
fairness onto one persistent forked worker pool (engines compiled once
per worker and kept warm across campaigns — any tenant, any seed), streams
live progress over Server-Sent Events, and serves reports rebuilt straight
from the journal without executing anything.  Every accepted submission is
manifested durably (fsync) before it is acknowledged, so a ``kill -9`` of
the daemon loses nothing: restart resumes in-flight campaigns through the
store's claim/replay/record protocol to a byte-identical journal.

Entry points: :class:`CampaignService` (the daemon),
:class:`ServiceClient` (blocking client library), and the ``serve`` /
``submit`` / ``watch`` CLI verbs in :mod:`repro.experiments.__main__`.
"""

from .client import ServiceClient, ServiceUnavailable
from .protocol import (
    BadSubmission,
    Submission,
    build_manifest,
    campaign_key_for,
    campaign_row,
    config_of,
    normalize_submission,
    spec_of,
    status_payload,
    submission_from_manifest,
)
from .scheduler import Backpressure, FairScheduler
from .server import CampaignService
from .workers import EngineCache, StreamingRecorder, execute_submission

__all__ = [
    "BadSubmission",
    "Backpressure",
    "CampaignService",
    "EngineCache",
    "FairScheduler",
    "ServiceClient",
    "ServiceUnavailable",
    "StreamingRecorder",
    "Submission",
    "build_manifest",
    "campaign_key_for",
    "campaign_row",
    "config_of",
    "execute_submission",
    "normalize_submission",
    "spec_of",
    "status_payload",
    "submission_from_manifest",
]
