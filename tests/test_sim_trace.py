"""Unit tests for transaction tracing (Figure 7 machinery).

Events reach a :class:`TraceRecorder` the way devices deliver them: as
:class:`TraceHook` publishes on a :class:`HookBus`.
"""

from repro.eval.report import format_trace_rows
from repro.sim.hooks import HookBus, TraceHook
from repro.sim.trace import EventKind, TraceRecorder, Transaction
from repro.sim.transaction import TransactionLog
from repro.system import System


class Trace:
    """A bus with one recorder subscribed; ``publish`` emits a TraceHook."""

    def __init__(self):
        self.bus = HookBus()
        self.recorder = TraceRecorder(self.bus)

    def publish(self, kind, time, txn, sqi):
        self.bus.publish(
            TraceHook(tick=time, kind=kind, transaction_id=txn, sqi=sqi)
        )

    def transactions(self):
        return self.recorder.transactions()


def record_txn(trace, txn, sqi=1, data=None, req=None, vacate=None, fill=None, use=None):
    if data is not None:
        trace.publish(EventKind.DATA_ARRIVE, data, txn, sqi)
    if req is not None:
        trace.publish(EventKind.REQUEST_ARRIVE, req, txn, sqi)
    if vacate is not None:
        trace.publish(EventKind.LINE_VACATE, vacate, txn, sqi)
    if fill is not None:
        trace.publish(EventKind.LINE_FILL, fill, txn, sqi)
    if use is not None:
        trace.publish(EventKind.FIRST_USE, use, txn, sqi)


def test_disabled_recorder_records_nothing(env):
    # An untraced system builds no recorder, so no TraceHook is constructed.
    system = System()
    assert system.trace is None
    assert not system.hooks.wants(TraceHook)


def test_transaction_ids_are_unique(env):
    log = TransactionLog()
    ids = [log.open(1).tid for _ in range(100)]
    assert len(set(ids)) == 100


def test_reconstruction_groups_by_transaction(env):
    trace = Trace()
    record_txn(trace, 0, data=10, req=20, vacate=5, fill=30, use=40)
    record_txn(trace, 1, data=50, fill=60, vacate=45, use=70)
    txns = trace.transactions()
    assert len(txns) == 2
    assert txns[0].data_arrive == 10 and txns[0].first_use == 40
    assert txns[1].request_arrive is None


def test_speculative_detection(env):
    trace = Trace()
    record_txn(trace, 0, data=10, vacate=5, fill=30, use=40)  # no request
    record_txn(trace, 1, data=10, req=20, vacate=5, fill=30, use=40)
    txns = trace.transactions()
    assert txns[0].speculative
    assert not txns[1].speculative


def test_request_bound_and_potential_saving(env):
    trace = Trace()
    # Request (t=50) is the latest prerequisite; fill at 80.
    record_txn(trace, 0, data=10, req=50, vacate=20, fill=80, use=90)
    txn = trace.transactions()[0]
    assert txn.request_bound
    # A speculative push could have filled at max(data, vacate)=20: save 60.
    assert txn.potential_saving == 60


def test_not_request_bound_when_data_is_latest(env):
    trace = Trace()
    record_txn(trace, 0, data=60, req=50, vacate=20, fill=80, use=90)
    txn = trace.transactions()[0]
    assert not txn.request_bound
    assert txn.potential_saving == 0


def test_earliest_request_kept(env):
    trace = Trace()
    trace.publish(EventKind.REQUEST_ARRIVE, 30, 0, 1)
    trace.publish(EventKind.REQUEST_ARRIVE, 10, 0, 1)
    # Earliest matched request is the one the figure plots...
    txn = trace.transactions()[0]
    assert txn.request_arrive == 30  # first recorded wins (match order)


def test_load_to_use(env):
    trace = Trace()
    record_txn(trace, 0, data=1, fill=100, use=130, vacate=0)
    assert trace.transactions()[0].load_to_use == 30


def test_window_filters_on_fill_time(env):
    # The Figure 7 zoom window lives in the renderer: rows by fill time.
    trace = Trace()
    record_txn(trace, 0, data=1, fill=100, use=110, vacate=0)
    record_txn(trace, 1, data=1, fill=300, use=310, vacate=0)
    rows = format_trace_rows(trace.transactions(), 50, 200).splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [0]


def test_incomplete_transaction_flags(env):
    txn = Transaction(0, 1, data_arrive=5)
    assert not txn.complete
    assert not txn.speculative  # no fill yet
    assert txn.potential_saving == 0
    assert txn.load_to_use is None
