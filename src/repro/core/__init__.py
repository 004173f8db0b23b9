"""Diff-Index core: schemes, index metadata, coprocessors, AUQ/APS,
getByIndex, session consistency, staleness tracking and verification."""

from repro.core.adaptive import (AdaptiveController, AdaptivePolicy,
                                 Decision, SloSignal)
from repro.core.auq import IndexTask
from repro.core.dense import DenseColumnCodec, DenseField
from repro.core.maintenance import ScrubReport, rebuild_index, scrub_index
from repro.core.coprocessor import RegionObserver
from repro.core.encoding import (decode_index_key, decode_value,
                                 encode_index_key, encode_value,
                                 index_prefix, prefix_upper_bound)
from repro.core.index import (IndexDescriptor, IndexScope,
                              extract_index_values, row_index_key)
from repro.core.observers import (AsyncObserver, SyncFullObserver,
                                  SyncInsertObserver, build_observers)
from repro.core.reader import IndexHit, get_by_index, index_scan_range
from repro.core.schemes import (ConsistencyLevel, IndexScheme,
                                WorkloadProfile, recommend_scheme)
from repro.core.session import Session
from repro.core.staleness import StalenessTracker
from repro.core.verify import IndexReport, check_index

__all__ = [
    "IndexScheme", "ConsistencyLevel", "WorkloadProfile", "recommend_scheme",
    "IndexDescriptor", "IndexScope", "extract_index_values", "row_index_key",
    "encode_value", "decode_value", "encode_index_key", "decode_index_key",
    "index_prefix", "prefix_upper_bound",
    "RegionObserver",
    "SyncFullObserver", "SyncInsertObserver", "AsyncObserver",
    "build_observers",
    "IndexTask",
    "IndexHit", "get_by_index", "index_scan_range",
    "Session", "StalenessTracker",
    "IndexReport", "check_index",
    "AdaptiveController", "AdaptivePolicy", "Decision", "SloSignal",
    "DenseColumnCodec", "DenseField",
    "scrub_index", "rebuild_index", "ScrubReport",
]
