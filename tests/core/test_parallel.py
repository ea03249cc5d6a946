"""Executor semantics: ordering, fan-out, context stacking, BLAS pin."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel
from repro.core.parallel import (
    SERIAL_EXECUTOR,
    BucketExecutor,
    blas_threads,
    current_executor,
    host_executor,
    partition_weighted,
    use_executor,
    use_workers,
)


class TestBucketExecutor:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            BucketExecutor(0)

    def test_kind_property(self):
        assert BucketExecutor(1).kind == "serial"
        assert BucketExecutor(2).kind == "thread"

    def test_serial_map_is_a_plain_loop(self):
        ex = BucketExecutor(1)
        order = []

        def fn(i):
            order.append(i)
            return i * i

        assert ex.map(fn, range(5)) == [0, 1, 4, 9, 16]
        assert order == [0, 1, 2, 3, 4]  # submission order, inline
        assert ex._pool is None  # never creates a pool

    def test_single_item_stays_inline_even_with_workers(self):
        ex = BucketExecutor(4)
        main = threading.current_thread()
        threads = ex.map(lambda i: threading.current_thread(), [0])
        assert threads == [main]
        assert ex._pool is None
        ex.shutdown()

    def test_parallel_map_preserves_item_order(self):
        import time

        with BucketExecutor(4) as ex:
            # earlier items sleep longer: completion order is reversed,
            # result order must not be
            def fn(i):
                time.sleep(0.02 * (4 - i))
                return i

            assert ex.map(fn, range(4)) == [0, 1, 2, 3]

    def test_parallel_map_uses_worker_threads(self):
        with BucketExecutor(2) as ex:
            names = ex.map(
                lambda i: threading.current_thread().name, range(4)
            )
        assert all(n.startswith("bucket-worker") for n in names)

    def test_worker_exception_propagates(self):
        def boom(i):
            raise RuntimeError(f"item {i}")

        with BucketExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="item"):
                ex.map(boom, range(3))

    def test_shutdown_is_reentrant_and_pool_recreated(self):
        ex = BucketExecutor(2)
        assert ex.map(lambda i: i + 1, range(3)) == [1, 2, 3]
        ex.shutdown()
        ex.shutdown()  # second shutdown is a no-op
        assert ex.map(lambda i: i + 1, range(3)) == [1, 2, 3]
        ex.shutdown()


class TestCurrentExecutor:
    def test_default_is_the_host_executor(self):
        assert current_executor() is host_executor()
        expected = (
            parallel.host_cores()
            if parallel.host_cores() > 1 and blas_threads() is not None
            else 1
        )
        assert host_executor().workers == expected

    def test_use_executor_nests(self):
        a, b = BucketExecutor(1), BucketExecutor(1)
        with use_executor(a):
            assert current_executor() is a
            with use_executor(b):
                assert current_executor() is b
            assert current_executor() is a
        assert current_executor() is host_executor()

    def test_use_workers_shuts_down_on_exit(self):
        with use_workers(2) as ex:
            assert current_executor() is ex
            ex.map(lambda i: i, range(4))
            assert ex._pool is not None
        assert ex._pool is None
        assert current_executor() is host_executor()

    def test_use_executor_restores_on_exception(self):
        ex = BucketExecutor(1)
        with pytest.raises(RuntimeError):
            with use_executor(ex):
                raise RuntimeError("boom")
        assert current_executor() is host_executor()

    def test_stack_is_thread_local(self):
        # a pool worker thread must see the serial default, not the
        # executor it is running under — submitting nested fan-outs back
        # into your own pool deadlocks it
        with use_workers(2) as ex:
            seen = ex.map(lambda i: current_executor(), range(4))
        assert all(e is SERIAL_EXECUTOR for e in seen)

    def test_nested_fanout_inside_worker_does_not_deadlock(self):
        def body(i):
            # would deadlock if this re-entered the 2-wide outer pool
            return sum(current_executor().map(lambda j: j * i, range(8)))

        with use_workers(2) as ex:
            assert ex.map(body, range(6)) == [28 * i for i in range(6)]

    def test_host_default_nested_fanout_runs_serially_on_workers(self):
        # the process-wide default pool: a worker's own fan-out must not
        # submit back into it
        def body(i):
            inner = current_executor()
            return inner, inner.map(lambda j: threading.get_ident(), range(4))

        seen = current_executor().map(body, range(4))
        for inner, idents in seen:
            assert inner is SERIAL_EXECUTOR
            assert len(set(idents)) == 1


class TestHostDefault:
    def test_no_blas_control_gives_a_serial_default(self, monkeypatch):
        monkeypatch.setattr(parallel.BlasThreads, "find", classmethod(lambda cls: None))
        monkeypatch.setattr(parallel, "_blas", parallel._BLAS_UNSET)
        monkeypatch.setattr(parallel, "_host", None)
        assert blas_threads() is None
        assert host_executor() is SERIAL_EXECUTOR
        assert current_executor() is SERIAL_EXECUTOR
        # and a fan-out without a control runs unpinned
        with use_workers(2) as ex:
            assert ex.map(lambda i: i * i, range(4)) == [0, 1, 4, 9]

    def test_one_core_gives_a_serial_default(self, monkeypatch):
        monkeypatch.setattr(parallel, "host_cores", lambda: 1)
        monkeypatch.setattr(parallel, "_host", None)
        assert host_executor() is SERIAL_EXECUTOR


@pytest.fixture
def blas():
    control = blas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = control.get()
    yield control
    control.set(before)


class TestBlasPin:
    def test_one_thread_inside_a_fanout_restored_after(self, blas):
        blas.set(2)
        with use_workers(2) as ex:
            seen = ex.map(lambda i: blas.get(), range(4))
        assert seen == [1, 1, 1, 1]
        assert blas.get() == 2

    def test_restored_when_a_worker_raises(self, blas):
        blas.set(2)

        def body(i):
            if i == 2:
                raise RuntimeError("boom")
            return blas.get()

        with use_workers(2) as ex:
            with pytest.raises(RuntimeError, match="boom"):
                ex.map(body, range(4))
        assert blas.get() == 2

    def test_serial_map_leaves_blas_alone(self, blas):
        blas.set(2)
        assert SERIAL_EXECUTOR.map(lambda i: blas.get(), range(3)) == [2, 2, 2]
        with use_workers(2) as ex:  # one item stays inline
            assert ex.map(lambda i: blas.get(), [0]) == [2]

    def test_concurrent_fanouts_restore_the_first_count(self, blas):
        # two threads fan out at once: the last one out restores
        blas.set(2)
        release = threading.Event()
        inside = threading.Barrier(3)

        def body(i):
            if i == 0:
                inside.wait(timeout=30)
                release.wait(timeout=30)
            return blas.get()

        results = []

        def fan():
            with use_workers(2) as ex:
                results.append(ex.map(body, range(2)))

        threads = [threading.Thread(target=fan) for _ in range(2)]
        for t in threads:
            t.start()
        inside.wait(timeout=30)  # both fan-outs are running
        assert blas.get() == 1
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert results == [[1, 1], [1, 1]]
        assert blas.get() == 2

    def test_attention_runs_on_one_blas_thread(self, blas, monkeypatch):
        from repro.attention import fused_long
        from repro.core.padding import packing_from_lengths

        seen = []
        real = fused_long._bucketed_fused_long

        def spy(*args, **kwargs):
            seen.append(blas.get())
            return real(*args, **kwargs)

        monkeypatch.setattr(fused_long, "_bucketed_fused_long", spy)
        blas.set(2)
        packing = packing_from_lengths([5, 3], 5, cache=None)
        qkv = np.ones((8, 3 * 16))
        fused_long.fused_long_mha(qkv, np.zeros(3 * 16), packing, 2)
        assert seen == [1]
        assert blas.get() == 2


class TestPartitionWeighted:
    def test_covers_range_contiguously(self):
        parts = partition_weighted([3, 1, 4, 1, 5, 9, 2, 6], 3)
        assert parts[0][0] == 0 and parts[-1][1] == 8
        assert all(
            parts[i][1] == parts[i + 1][0] for i in range(len(parts) - 1)
        )
        assert all(end > start for start, end in parts)

    def test_balances_by_weight(self):
        # one huge item up front: it gets a chunk to itself
        parts = partition_weighted([100, 1, 1, 1, 1, 1], 3)
        assert parts[0] == (0, 1)

    def test_never_more_parts_than_items(self):
        assert partition_weighted([1.0, 2.0], 5) == [(0, 1), (1, 2)]

    def test_single_part_and_empty(self):
        assert partition_weighted([1, 2, 3], 1) == [(0, 3)]
        assert partition_weighted([], 4) == []

    def test_deterministic(self):
        w = np.arange(1, 40) % 7 + 1
        assert partition_weighted(w, 4) == partition_weighted(list(w), 4)

    def test_quadratic_mode_matches_squared_weights(self):
        lens = [32] + [8] * 12
        got = partition_weighted(lens, 2, quadratic=True)
        squared = partition_weighted([l * l for l in lens], 2)
        assert got == squared
        # by Σlen² the long sequence alone outweighs the rest combined
        # (32² > 12·8²), while by raw tokens it is only a quarter of the
        # total — quadratic mode must isolate it, linear must not
        assert got[0] == (0, 1)
        assert partition_weighted(lens, 2)[0] != (0, 1)

    def test_quadratic_balance_bound_on_zipf_lengths(self):
        # property: every chunk's Σlen² is within max(len²) of the ideal
        # total/parts share, for Zipf-mixed length profiles (the serving
        # traffic shape) across seeds and part counts
        rng = np.random.default_rng(7)
        for seed in range(8):
            lens = np.minimum(
                rng.zipf(1.3, size=96).astype(np.int64) * 8, 512
            )
            for parts in (2, 4, 8):
                chunks = partition_weighted(lens, parts, quadratic=True)
                work = np.asarray(
                    [float(np.sum(lens[s:e] ** 2)) for s, e in chunks]
                )
                ideal = float(np.sum(lens.astype(np.float64) ** 2)) / len(
                    chunks
                )
                bound = float(np.max(lens.astype(np.float64) ** 2))
                assert np.max(work) <= ideal + bound + 1e-6
                assert np.min(work) >= ideal - bound - 1e-6


class TestRowParts:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(rows=st.integers(1, 5000), parts=st.integers(1, 8))
    def test_aligned_cover(self, rows, parts):
        from repro.core.parallel import ROW_ALIGN, row_parts

        cut = row_parts(rows, parts)
        assert cut[0].start == 0 and cut[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(cut, cut[1:]))
        assert all(p.start % ROW_ALIGN == 0 for p in cut)
        assert len(cut) <= max(1, min(parts, rows // ROW_ALIGN))
        if len(cut) > 1:
            assert min(p.stop - p.start for p in cut) >= ROW_ALIGN // 2
