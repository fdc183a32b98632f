"""The seven named workloads; README.md says why each exists."""

from workloads.acs import AcsSurvey
from workloads.adhoc import AdhocSmall
from workloads.ingest import IngestExport
from workloads.tpch import TpchHot, TpchParallel
from workloads.txn import TxnMixed
from workloads.wire import Wire

REGISTRY = {
    cls.name: cls
    for cls in (
        TpchHot, TpchParallel, AdhocSmall, IngestExport, AcsSurvey, Wire, TxnMixed
    )
}
