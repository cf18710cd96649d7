import errno
import os

import pytest
from hypothesis import given, strategies as st

from dtcsim.packets import (
    ORIGIN_E2E,
    ORIGIN_LOCAL,
    AckSegment,
    DataSegment,
    gaps_filled_with,
    sack_add,
    sack_covers,
)
from dtcsim.engine import DTC, HOP, TRACE_CHUNK_LINES, render_payload, renderer

seqs = st.integers(min_value=1, max_value=30)
acks = st.builds(
    AckSegment,
    st.integers(min_value=1, max_value=30),
    st.frozensets(seqs, max_size=8),
)


# -- constructor canonical form ----------------------------------------------

def test_constructor_strips_cumulatively_covered_entries():
    ack = AckSegment(4, {1, 2, 3, 4, 6})
    assert ack.sack == frozenset({4, 6})


def test_default_sack_is_empty():
    assert AckSegment(3).sack == frozenset()


@given(acks)
def test_canonical_form_invariant(ack):
    assert all(s >= ack.ack_no for s in ack.sack)


SACK_FORMS = {"frozenset": frozenset, "set": set, "list": list,
              "generator": lambda members: (s for s in members)}


@given(st.integers(min_value=1, max_value=30), st.lists(seqs, max_size=8),
       st.sampled_from(sorted(SACK_FORMS)))
def test_any_sack_form_is_filtered_to_a_canonical_frozenset(ack_no, members, form):
    # a generator is read once, so a fast path that looked at it first would
    # leave nothing for the filter
    ack = AckSegment(ack_no, SACK_FORMS[form](members))
    assert type(ack.sack) is frozenset
    assert ack.sack == {s for s in members if s >= ack_no}


@given(st.integers(min_value=1, max_value=30), st.frozensets(seqs, max_size=8))
def test_a_canonical_frozenset_sack_is_kept_as_the_same_object(ack_no, members):
    sack = frozenset(s for s in members if s >= ack_no)
    assert AckSegment(ack_no, sack).sack is sack


# -- sack_covers ---------------------------------------------------------------

def test_covers_below_cumulative_point():
    # a full cumulative ack vouches for everything beneath it
    assert sack_covers(AckSegment(4), 2)


def test_not_covered_when_absent():
    assert not sack_covers(AckSegment(1, {3}), 2)


def test_covered_when_selected():
    assert sack_covers(AckSegment(1, {3}), 3)


# -- sack_add -------------------------------------------------------------------

def test_add_extends_selective_set():
    assert sack_add(AckSegment(1, {3}), 2) == AckSegment(1, {2, 3})


def test_add_is_idempotent():
    ack = AckSegment(1, {2, 3})
    assert sack_add(ack, 2) == ack


def test_add_below_cumulative_point_is_noop():
    ack = AckSegment(5, {7})
    assert sack_add(ack, 3) == ack


@given(acks, seqs)
def test_add_then_covers(ack, seq):
    assert sack_covers(sack_add(ack, seq), seq) or seq < ack.ack_no
    # below the cumulative point coverage already holds
    if seq < ack.ack_no:
        assert sack_covers(ack, seq)


@given(acks, seqs)
def test_add_never_removes_information(ack, seq):
    extended = sack_add(ack, seq)
    assert extended.ack_no == ack.ack_no
    assert ack.sack <= extended.sack


# -- gaps_filled_with ------------------------------------------------------------

def test_gap_filling_segment_completes_range():
    # receiver holds 2 and 3; the retransmitted 1 fills every gap
    assert gaps_filled_with(AckSegment(1, {2, 3}), 1)


def test_remaining_hole_blocks():
    # 1 is still missing between the cumulative point and the selected 3
    assert not gaps_filled_with(AckSegment(1, {3}), 2)


def test_empty_range_above_cumulative_point():
    assert gaps_filled_with(AckSegment(4), 4)


@given(acks, seqs)
def test_gaps_filled_implies_full_coverage(ack, seq):
    if gaps_filled_with(ack, seq):
        extended = sack_add(ack, seq)
        highest = max(ack.sack | {seq})
        assert all(
            sack_covers(extended, n) for n in range(ack.ack_no, highest + 1)
        )


# -- rendering --------------------------------------------------------------------

def test_render_data_segment():
    assert render_payload(DataSegment(3, ORIGIN_E2E)) == "DATA seq=3 origin=e2e"
    assert render_payload(DataSegment(7, ORIGIN_LOCAL)) == "DATA seq=7 origin=local"


def test_render_ack_sorted():
    assert render_payload(AckSegment(1, {3, 2})) == "ACK no=1 sack={2,3}"
    assert render_payload(AckSegment(4)) == "ACK no=4 sack={}"


def test_renderer_writes_every_line_shape():
    # hops=4: node ids -1 (S), 0, 1, 2 and 3 (R)
    records = [
        (0, HOP, -1, 0, "data", True, DataSegment(1, ORIGIN_E2E)),
        (10, HOP, 1, 2, "data", False, DataSegment(2, ORIGIN_LOCAL)),
        (20, HOP, 3, 2, "ack", True, AckSegment(2)),
        (30, HOP, 0, -1, "ack", False, AckSegment(1, {6, 3, 4})),
        (40, HOP, 0, -1, "llack", True, DataSegment(1, ORIGIN_E2E)),
        (50, HOP, 2, 3, "llack", False, AckSegment(2)),
        (60, DTC, 0, "cache", 1),
        (70, DTC, 1, "lock", 2),
        (80, DTC, 2, "local_retx", 3),
        (90, DTC, 0, "clear", 4),
        (100, DTC, 1, "drop_ack", 5),
        (110, DTC, 2, "regen_ack", 6),
    ]
    written = []
    with renderer(4, written.append) as sink:
        for record in records:
            sink(record)
        assert written == []
    # fewer lines than a chunk: one write, as the with exits
    assert written == ["".join([
        "HOP from=S to=0 kind=data result=delivered t=0 DATA seq=1 origin=e2e\n",
        "HOP from=1 to=2 kind=data result=lost t=10 DATA seq=2 origin=local\n",
        "HOP from=R to=2 kind=ack result=delivered t=20 ACK no=2 sack={}\n",
        "HOP from=0 to=S kind=ack result=lost t=30 ACK no=1 sack={3,4,6}\n",
        "HOP from=0 to=S kind=llack result=delivered t=40\n",
        "HOP from=2 to=R kind=llack result=lost t=50\n",
        "DTC node=0 action=cache seq=1 t=60\n",
        "DTC node=1 action=lock seq=2 t=70\n",
        "DTC node=2 action=local_retx seq=3 t=80\n",
        "DTC node=0 action=clear seq=4 t=90\n",
        "DTC node=1 action=drop_ack seq=5 t=100\n",
        "DTC node=2 action=regen_ack seq=6 t=110\n",
    ])]


@pytest.mark.parametrize("records", [TRACE_CHUNK_LINES + 5, 5],
                         ids=["chunk-write", "exit-write"])
def test_a_failed_trace_write_propagates_and_is_not_retried(records):
    calls = []

    def write(text):
        calls.append(text)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(OSError):
        with renderer(4, write) as sink:
            for k in range(records):
                sink((k, DTC, 0, "cache", k))
    # the held lines were dropped before the write, so the exit has none left
    assert len(calls) == 1
    assert calls[0].count("\n") == min(records, TRACE_CHUNK_LINES)
