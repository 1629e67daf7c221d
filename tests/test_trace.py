"""Tests for traces, cursors and the trace builder."""

import hashlib
import json

import pytest

from repro.common.errors import TraceError
from repro.isa import registers as regs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.trace import trace as trace_module
from repro.trace.trace import Trace, TraceCursor, merge_traces
from repro.workloads.builder import TraceBuilder
from repro.workloads.integer import multi_pointer_chase
from repro.workloads.numerical import daxpy
from repro.workloads.registry import get_suite, suite_names


def make_trace(n=10):
    return Trace(
        [Instruction(pc=4 * i, op=OpClass.INT_ALU, dest=1, srcs=(2,)) for i in range(n)],
        name="synthetic",
    )


class TestTrace:
    def test_length_and_indexing(self):
        trace = make_trace(5)
        assert len(trace) == 5
        assert trace[0].pc == 0
        assert trace[4].pc == 16

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            Trace([])

    def test_mix_counts(self):
        trace = make_trace(3)
        assert trace.mix() == {"int_alu": 3}
        assert trace.count(OpClass.INT_ALU) == 3
        assert trace.count(OpClass.LOAD) == 0

    def test_fractions(self):
        instrs = [
            Instruction(pc=0, op=OpClass.LOAD, dest=1, mem_addr=0x100),
            Instruction(pc=4, op=OpClass.STORE, srcs=(1,), mem_addr=0x108),
            Instruction(pc=8, op=OpClass.BRANCH, branch_taken=False),
            Instruction(pc=12, op=OpClass.INT_ALU, dest=2),
        ]
        trace = Trace(instrs)
        assert trace.load_fraction() == pytest.approx(0.25)
        assert trace.store_fraction() == pytest.approx(0.25)
        assert trace.branch_fraction() == pytest.approx(0.25)

    def test_unique_lines_and_footprint(self):
        instrs = [
            Instruction(pc=0, op=OpClass.LOAD, dest=1, mem_addr=0),
            Instruction(pc=4, op=OpClass.LOAD, dest=1, mem_addr=8),
            Instruction(pc=8, op=OpClass.LOAD, dest=1, mem_addr=64),
        ]
        trace = Trace(instrs)
        assert trace.unique_lines(64) == 2
        assert trace.footprint_bytes(64) == 128

    def test_slice(self):
        trace = make_trace(10)
        part = trace.slice(2, 5)
        assert len(part) == 3
        assert part[0].pc == 8

    def test_slice_bounds_checked(self):
        with pytest.raises(TraceError):
            make_trace(5).slice(3, 2)
        with pytest.raises(TraceError):
            make_trace(5).slice(0, 9)

    def test_concat_and_merge(self):
        first, second = make_trace(3), make_trace(4)
        assert len(first.concat(second)) == 7
        assert len(merge_traces([first, second, first])) == 10

    def test_jsonl_roundtrip(self):
        instrs = [
            Instruction(pc=0, op=OpClass.FP_LOAD, dest=regs.fp_reg(2), mem_addr=0x1234, srcs=(1,)),
            Instruction(pc=4, op=OpClass.BRANCH, branch_taken=True, branch_target=0),
            Instruction(pc=8, op=OpClass.INT_ALU, dest=3, srcs=(3,), raises_exception=True),
        ]
        trace = Trace(instrs, name="round")
        restored = Trace.from_jsonl(trace.to_jsonl(), name="round")
        assert len(restored) == len(trace)
        for a, b in zip(trace, restored):
            assert a == b

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(TraceError):
            Trace.from_jsonl("this is not json")


def reference_digest(trace):
    """The digest's defining byte stream: each record's sorted-key JSON plus a newline.

    ``Trace.digest`` must hash exactly these bytes; warm checkpoints are
    keyed on the result, so any difference orphans stored checkpoints.
    """
    hasher = hashlib.sha256()
    for instr in trace:
        hasher.update(json.dumps(instr.to_record(), sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def hostile_trace():
    """Labels that need escaping, and fields equal in value but not in JSON.

    ``1``, ``1.0`` and ``True`` compare and hash equal but serialise as
    ``1``, ``1.0`` and ``true``; each appears as pc, mem_addr, a source
    register (and more) in otherwise identical instructions, in both
    orders, so a memo keyed on values alone replays the wrong text.
    """
    labels = ['say "hi"', "back\\slash", "new\nline", "naïve ✓ 漢字", "100%", '", "mem_addr": null']
    instrs = [Instruction(pc=4 * i, op=OpClass.INT_ALU, dest=1, label=label) for i, label in enumerate(labels)]
    for one in (1, 1.0, True, 1.0, 1):
        instrs += [
            Instruction(pc=one, op=OpClass.INT_ALU, dest=2, srcs=(3,)),
            Instruction(pc=64, op=OpClass.LOAD, dest=2, mem_addr=one),
            Instruction(pc=68, op=OpClass.FP_ALU, dest=33, srcs=(one, 2)),
            Instruction(pc=72, op=OpClass.INT_ALU, dest=one),
            Instruction(pc=76, op=OpClass.BRANCH, branch_taken=one, branch_target=one),
            Instruction(pc=80, op=OpClass.INT_ALU, raises_exception=one, mem_size=one),
        ]
    instrs.append(Instruction(pc=84, op=OpClass.FP_ALU, dest=33, srcs=[1, 2]))
    return Trace(instrs, name="hostile")


class TestTraceDigest:
    #: Recorded with the original ``json.dumps`` implementation.
    FROZEN = {
        "daxpy": "3967b10221155819296ae112185c816a0ce6145750f0deefdee3508e5bb18199",
        "gather": "e4f6ab6b6f712a8db74383196f8432bf211d9032ba57e86528543b099390928c",
        "multi_chase": "334a98aa0973ec4228f4d5cefd4cc78e4c9088266a4a333f0f4bb18dad8eea92",
    }

    def test_frozen_digests(self):
        traces = {
            "daxpy": daxpy(elements=50),
            "gather": get_suite("spec2000fp_like").build(0.05)["gather"],
            "multi_chase": multi_pointer_chase(hops=90, chains=4, seed=0),
        }
        for name, trace in traces.items():
            assert reference_digest(trace) == self.FROZEN[name], name
            assert trace.digest() == self.FROZEN[name], name

    @pytest.mark.parametrize("suite", suite_names())
    def test_matches_reference_on_registered_suite(self, suite):
        for name, trace in get_suite(suite).build(0.05).items():
            assert trace.digest() == reference_digest(trace), name

    def test_matches_reference_on_hostile_records(self):
        trace = hostile_trace()
        assert trace.digest() == reference_digest(trace)

    def test_matches_reference_past_memo_and_chunk_sizes(self):
        # Every pc distinct: the memo fills and restarts, and the hash
        # runs over more than one chunk.
        count = max(trace_module._DIGEST_MEMO_CAP, trace_module._DIGEST_CHUNK) + 7
        trace = Trace([Instruction(pc=4 * i, op=OpClass.INT_ALU, dest=1) for i in range(count)])
        assert trace.digest() == reference_digest(trace)

    def test_name_is_not_hashed(self):
        trace = daxpy(elements=50)
        assert Trace(list(trace), name="renamed").digest() == trace.digest()


class TestTraceCursor:
    def test_fetch_in_order(self):
        trace = make_trace(4)
        cursor = TraceCursor(trace)
        fetched = [cursor.fetch().pc for _ in range(4)]
        assert fetched == [0, 4, 8, 12]
        assert cursor.exhausted
        assert cursor.fetch() is None

    def test_peek_does_not_advance(self):
        cursor = TraceCursor(make_trace(2))
        assert cursor.peek().pc == 0
        assert cursor.position == 0

    def test_fetch_block_stops_at_end(self):
        cursor = TraceCursor(make_trace(3))
        block = cursor.fetch_block(8)
        assert len(block) == 3

    def test_rewind_replays(self):
        cursor = TraceCursor(make_trace(5))
        cursor.fetch_block(5)
        cursor.rewind_to(2)
        assert cursor.position == 2
        assert cursor.remaining() == 3
        assert cursor.fetch().pc == 8

    def test_rewind_bounds_checked(self):
        cursor = TraceCursor(make_trace(5))
        with pytest.raises(TraceError):
            cursor.rewind_to(9)

    def test_invalid_start(self):
        with pytest.raises(TraceError):
            TraceCursor(make_trace(3), start=5)


class TestTraceBuilder:
    def test_pc_advances_by_default(self):
        builder = TraceBuilder("t", start_pc=0x100)
        builder.int_op(1)
        builder.int_op(2)
        trace = builder.build()
        assert trace[0].pc == 0x100
        assert trace[1].pc == 0x104

    def test_set_pc_models_loop_backedge(self):
        builder = TraceBuilder("t")
        loop_pc = builder.pc
        builder.int_op(1)
        builder.set_pc(loop_pc)
        builder.int_op(1)
        trace = builder.build()
        assert trace[0].pc == trace[1].pc

    def test_load_store_steering(self):
        builder = TraceBuilder("t")
        builder.load(regs.fp_reg(1), 0x1000)
        builder.load(regs.int_reg(1), 0x1008)
        builder.store(0x1010, regs.fp_reg(1))
        builder.store(0x1018, regs.int_reg(1))
        trace = builder.build()
        assert trace[0].op is OpClass.FP_LOAD
        assert trace[1].op is OpClass.LOAD
        assert trace[2].op is OpClass.FP_STORE
        assert trace[3].op is OpClass.STORE

    def test_branch_taken_gets_target(self):
        builder = TraceBuilder("t")
        builder.branch(taken=True)
        trace = builder.build()
        assert trace[0].branch_taken
        assert trace[0].branch_target is not None

    def test_len_tracks_emissions(self):
        builder = TraceBuilder("t")
        assert len(builder) == 0
        builder.nop()
        assert len(builder) == 1
