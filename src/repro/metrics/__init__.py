"""SNN-on-hardware performance metrics (paper Section II).

Beyond the conventional interconnect metrics (latency, energy,
throughput), the paper introduces two SNN-specific measures of information
degradation caused by time-multiplexing global synapses:

- **spike disorder count** (:mod:`repro.metrics.disorder`) — fraction of
  spikes that arrive at a destination after a spike that was injected
  later (arbitration overtaking);
- **inter-spike-interval distortion** (:mod:`repro.metrics.isi`) — how much
  congestion-induced jitter changes the ISIs a receiving neuron observes
  relative to what the sender emitted.

Both are computed from the NoC simulator's deliveries, read as the
columns of ``NocStats.delivery_columns()``.
"""

from repro.metrics.congestion import CongestionReport, congestion_report
from repro.metrics.disorder import disorder_count, disorder_fraction
from repro.metrics.isi import isi_distortion_summary
from repro.metrics.report import (
    CampaignDraw,
    CampaignLevelStats,
    CampaignSummary,
    MetricReport,
    build_report,
)

__all__ = [
    "disorder_count",
    "disorder_fraction",
    "isi_distortion_summary",
    "MetricReport",
    "build_report",
    "CampaignDraw",
    "CampaignLevelStats",
    "CampaignSummary",
    "CongestionReport",
    "congestion_report",
]
