"""Tests for the sharded parallel fit layer (``repro.parallel``).

Covers the determinism contract end to end — the shard count picks the
code (one shard is the serial fit at any worker count, more shards run
each stage's task function through ``WorkerPool.run``) and the worker
count picks the process (every worker count runs the same tasks and
produces identical output, under ``fork`` and ``spawn``) — plus
shared-memory hygiene (a failing shard never leaks ``/dev/shm`` segments,
threads sharing segments keep the resource tracker intact) and the RNG
stream discipline (hypothesis property: each shard's walk rows depend only
on the base seed, its index, and its slice, never on the other shards).
"""

import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.graph.compression import msp_compress
from repro.graph.graph import MatchGraph, NodeKind
from repro.graph.walk_engine import CSRWalkEngine, make_walk_engine
from repro.graph.walks import RandomWalkConfig
from repro.parallel import (
    ParallelConfig,
    ParallelWalkEngine,
    ShmArena,
    WorkerPool,
    attached,
    shard_ranges,
)
from repro.parallel import compression as parallel_compression
from repro.parallel import shm as shm_module
from repro.parallel.compression import _dag_union_task
from repro.parallel.trainer import _train_shard_task
from repro.parallel.walks import _walk_shard_task, walk_shard
from repro.utils.rng import spawn_rngs
from tests.oracles.graph import ReferenceGraph
from tests.oracles.walks import label_walks


# ----------------------------------------------------------------------
# Fixtures
def random_graph(num_nodes: int = 50, num_edges: int = 220, seed: int = 3) -> MatchGraph:
    g = ReferenceGraph()
    rng = np.random.default_rng(seed)
    for i in range(num_nodes):
        g.add_node(f"n{i}")
    for _ in range(num_edges):
        u, v = rng.integers(0, num_nodes, 2)
        if u != v:
            g.add_edge(f"n{u}", f"n{v}")
    return g.freeze()


def metadata_graph() -> MatchGraph:
    """A two-corpus graph msp_compress and the pipeline can run on."""
    g = ReferenceGraph()
    rng = np.random.default_rng(5)
    terms = [f"term{i}" for i in range(30)]
    for t in terms:
        g.add_node(t, kind=NodeKind.DATA)
    for i in range(8):
        g.add_node(f"t{i}", kind=NodeKind.METADATA, corpus="first", role="tuple")
        for j in rng.choice(30, size=6, replace=False):
            g.add_edge(f"t{i}", terms[j])
    for i in range(8):
        g.add_node(f"p{i}", kind=NodeKind.METADATA, corpus="second", role="document")
        for j in rng.choice(30, size=6, replace=False):
            g.add_edge(f"p{i}", terms[j])
    return g.freeze()


def sentences_corpus(n: int = 80, length: int = 10, vocab: int = 40, seed: int = 1):
    ids = np.random.default_rng(seed).integers(0, vocab, (n, length))
    return [[f"w{i}" for i in row] for row in ids]


# ----------------------------------------------------------------------
# Config validation
class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.num_workers == 0
        assert config.shards == 1

    def test_enabled_stages(self):
        # The shard count follows the worker count unless it is set.
        assert ParallelConfig(num_workers=2).shards == 2
        assert ParallelConfig(num_workers=1).shards == 1

    def test_explicit_shards_override_workers(self):
        assert ParallelConfig(num_workers=2, num_shards=5).shards == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(num_workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(num_shards=0)
        with pytest.raises(ValueError):
            ParallelConfig(mp_context="bogus")


# ----------------------------------------------------------------------
# Shared-memory arena + teardown hygiene (satellite: no leaked segments)
def _boom(desc):
    with attached(desc):
        raise RuntimeError("shard failure")


def _walk_boom(*args):
    raise RuntimeError("walk shard died")


def _read_first(desc):
    with attached(desc) as (array,):
        return float(array.flat[0])


class TestShmArena:
    def test_share_and_view_roundtrip(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        with ShmArena() as arena:
            desc = arena.share(data)
            assert desc.shape == (3, 4) and desc.dtype == "float32"
            assert np.array_equal(arena.view(desc), data)
            with attached(desc) as (view,):
                assert np.array_equal(view, data)
            assert desc.name in ShmArena.live_segments()
        assert desc.name not in ShmArena.live_segments()

    def test_empty_blocks_are_zeroed(self):
        with ShmArena() as arena:
            desc, view = arena.empty((4, 2), np.int64)
            assert view.shape == (4, 2)
            assert not view.any()
            view[1, 1] = 7
            with attached(desc) as (worker_view,):
                assert worker_view[1, 1] == 7

    def test_segments_unlinked_after_exit(self):
        with ShmArena() as arena:
            desc = arena.share(np.ones(8))
        with pytest.raises(FileNotFoundError):
            with attached(desc):
                pass

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_failing_shard_leaks_no_segments(self, num_workers):
        # The teardown-hygiene regression: a worker exception mid-fit must
        # propagate AND leave every segment unlinked, inline and pooled.
        config = ParallelConfig(num_workers=num_workers)
        before = ShmArena.live_segments()
        with pytest.raises(RuntimeError, match="shard failure"):
            with ShmArena() as arena, WorkerPool(config) as pool:
                desc = arena.share(np.ones(16))
                pool.run(_boom, [(desc,), (desc,)])
        assert ShmArena.live_segments() == before
        with pytest.raises(FileNotFoundError):
            with attached(desc):
                pass

    def test_pool_runs_tasks_in_order(self):
        config = ParallelConfig(num_workers=2)
        with ShmArena() as arena, WorkerPool(config) as pool:
            descs = [arena.share(np.full(4, float(i))) for i in range(3)]
            results = pool.run(_read_first, [(d,) for d in descs])
        assert results == [0.0, 1.0, 2.0]

    def test_threads_sharing_and_attaching_register_every_segment(self, monkeypatch):
        # Before Python 3.13 an attach swaps the process-global
        # resource_tracker.register for a no-op.  Threads attaching at once
        # must not leave the no-op behind, and a segment created in another
        # thread meanwhile must still be registered (once).
        from multiprocessing import resource_tracker

        register = resource_tracker.register
        registered = []

        def counting_register(name, rtype):
            registered.append(rtype)
            return register(name, rtype)

        monkeypatch.setattr(resource_tracker, "register", counting_register)
        created = []
        errors = []

        def cycles():
            try:
                for _ in range(200):
                    with ShmArena() as arena:
                        desc = arena.share(np.ones(4))
                        created.append(desc.name)
                        with attached(desc) as (view,):
                            assert view[0] == 1.0
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=cycles) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert resource_tracker.register is counting_register
        assert registered.count("shared_memory") == len(created) == 800

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_worker_does_not_inherit_the_held_tracker_lock(self):
        with shm_module._TRACKER_LOCK:
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as ex:
                assert ex.submit(_tracker_lock_free).result(timeout=60)


def _tracker_lock_free() -> bool:
    if not shm_module._TRACKER_LOCK.acquire(timeout=5):
        return False
    shm_module._TRACKER_LOCK.release()
    return True


# ----------------------------------------------------------------------
# Walk sharding
class TestParallelWalks:
    def test_single_shard_bit_identical_to_serial(self):
        graph = random_graph()
        config = RandomWalkConfig(num_walks=4, walk_length=10)
        serial = label_walks(CSRWalkEngine(graph, config), seed=11)
        engine = ParallelWalkEngine(
            graph, config, parallel=ParallelConfig(num_workers=1, num_shards=1)
        )
        assert label_walks(engine, seed=11) == serial

    def test_worker_count_invariant_at_fixed_shards(self):
        graph = random_graph()
        config = RandomWalkConfig(num_walks=3, walk_length=8)
        one = label_walks(
            ParallelWalkEngine(
                graph, config, parallel=ParallelConfig(num_workers=1, num_shards=2)
            ),
            seed=19,
        )
        two = label_walks(
            ParallelWalkEngine(
                graph, config, parallel=ParallelConfig(num_workers=2, num_shards=2)
            ),
            seed=19,
        )
        assert one == two
        serial = label_walks(CSRWalkEngine(graph, config), seed=19)
        assert len(one) == len(serial)
        assert sorted(w[0] for w in one) == sorted(w[0] for w in serial)

    def test_deterministic_across_runs(self):
        graph = random_graph()
        config = RandomWalkConfig(num_walks=3, walk_length=8)
        parallel = ParallelConfig(num_workers=2, num_shards=3)
        first = label_walks(ParallelWalkEngine(graph, config, parallel=parallel), seed=4)
        second = label_walks(ParallelWalkEngine(graph, config, parallel=parallel), seed=4)
        assert first == second

    def test_more_shards_than_start_nodes(self):
        graph = random_graph(num_nodes=5, num_edges=12)
        config = RandomWalkConfig(num_walks=2, walk_length=6)
        parallel = ParallelConfig(num_workers=2, num_shards=16)
        walks = label_walks(ParallelWalkEngine(graph, config, parallel=parallel), seed=2)
        serial = label_walks(CSRWalkEngine(graph, config), seed=2)
        assert len(walks) == len(serial)

    def test_make_walk_engine_dispatch(self):
        graph = random_graph()
        engine = make_walk_engine(graph, parallel=ParallelConfig(num_workers=2))
        assert isinstance(engine, ParallelWalkEngine)
        assert engine.name == "csr-parallel"
        # The shard count alone picks the engine: two shards at zero
        # workers shard too, and one shard keeps the plain CSR engine at
        # any worker count.
        two_shards = make_walk_engine(graph, parallel=ParallelConfig(num_shards=2))
        assert isinstance(two_shards, ParallelWalkEngine)
        for parallel in (ParallelConfig(), ParallelConfig(num_workers=2, num_shards=1)):
            assert type(make_walk_engine(graph, parallel=parallel)) is CSRWalkEngine

    def test_failing_walk_shard_leaks_no_segments(self, monkeypatch):
        import repro.parallel.walks as walks_module

        monkeypatch.setattr(walks_module, "_walk_shard_task", _walk_boom)
        graph = random_graph()
        engine = ParallelWalkEngine(
            graph,
            RandomWalkConfig(num_walks=2, walk_length=6),
            parallel=ParallelConfig(num_workers=2, num_shards=2),
        )
        before = ShmArena.live_segments()
        with pytest.raises(RuntimeError, match="walk shard died"):
            list(engine.iter_walks(seed=1))
        assert ShmArena.live_segments() == before


# ----------------------------------------------------------------------
# RNG stream discipline (satellite: hypothesis property)
class TestShardStreams:
    @given(
        n=st.integers(min_value=0, max_value=200),
        num_shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_shard_ranges_partition(self, n, num_shards):
        ranges = shard_ranges(n, num_shards)
        assert len(ranges) == num_shards
        cursor = 0
        for lo, hi in ranges:
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == n
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    @given(
        base=st.integers(min_value=0, max_value=2**32 - 1),
        num_shards=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_shard_output_depends_only_on_base_index_and_slice(
        self, base, num_shards, seed
    ):
        # The disjoint-range-stability property behind the determinism
        # contract: shard i's rows are a pure function of (base seed, i,
        # its slice) — recomputing any one shard in isolation reproduces
        # exactly the rows the full multi-shard run wrote for it.
        csr = random_graph(num_nodes=24, num_edges=90, seed=seed)
        start_ids = np.arange(csr.num_nodes(), dtype=np.int64)
        num_walks, walk_length, batch_size = 2, 6, 7

        full = np.zeros((num_walks * csr.num_nodes(), walk_length), dtype=np.int32)
        full_lengths = np.zeros(num_walks * csr.num_nodes(), dtype=np.int64)
        offsets = []
        row = 0
        for (lo, hi), rng in zip(
            shard_ranges(csr.num_nodes(), num_shards), spawn_rngs(base, num_shards)
        ):
            offsets.append(row)
            row += walk_shard(
                csr.indptr, csr.indices, start_ids[lo:hi], rng,
                num_walks, walk_length, batch_size, full, full_lengths, row_offset=row,
            )

        for i, (lo, hi) in enumerate(shard_ranges(csr.num_nodes(), num_shards)):
            rows = (hi - lo) * num_walks
            alone = np.zeros((rows, walk_length), dtype=np.int32)
            alone_lengths = np.zeros(rows, dtype=np.int64)
            rng = spawn_rngs(base, num_shards)[i]
            walk_shard(
                csr.indptr, csr.indices, start_ids[lo:hi], rng,
                num_walks, walk_length, batch_size, alone, alone_lengths,
            )
            assert np.array_equal(full[offsets[i] : offsets[i] + rows], alone)
            assert np.array_equal(
                full_lengths[offsets[i] : offsets[i] + rows], alone_lengths
            )


# ----------------------------------------------------------------------
# Compression sharding
class TestParallelCompression:
    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(num_workers=1, num_shards=3),
            ParallelConfig(num_workers=2),
            ParallelConfig(num_workers=2, num_shards=5),
        ],
    )
    def test_msp_output_identical_to_serial(self, parallel):
        graph = metadata_graph()
        first = [f"t{i}" for i in range(8)]
        second = [f"p{i}" for i in range(8)]
        serial = msp_compress(graph, first, second, beta=2.0, seed=13)
        sharded = msp_compress(graph, first, second, beta=2.0, seed=13, parallel=parallel)
        assert sharded.graph.nodes() == serial.graph.nodes()
        assert set(sharded.graph.edges()) == set(serial.graph.edges())
        assert sharded.graph.num_edges() == serial.graph.num_edges()


# ----------------------------------------------------------------------
# Word2Vec epoch sharding
class TestParallelWord2Vec:
    CONFIG = dict(vector_size=24, epochs=2, batch_size=16)

    def _train(self, parallel=None, sg=True):
        model = Word2Vec(
            Word2VecConfig(sg=sg, **self.CONFIG), seed=21, parallel=parallel
        )
        model.train(sentences_corpus())
        return model

    @pytest.mark.parametrize("sg", [True, False])
    def test_single_shard_bit_identical_to_serial(self, sg):
        serial = self._train(sg=sg)
        single = self._train(ParallelConfig(num_workers=1, num_shards=1), sg=sg)
        assert np.array_equal(serial._input_vectors, single._input_vectors)
        assert np.array_equal(serial._output_vectors, single._output_vectors)

    def test_worker_count_invariant_at_fixed_shards(self):
        one = self._train(ParallelConfig(num_workers=1, num_shards=2))
        two = self._train(ParallelConfig(num_workers=2, num_shards=2))
        assert np.array_equal(one._input_vectors, two._input_vectors)
        assert np.array_equal(one._output_vectors, two._output_vectors)

    def test_sharded_training_close_to_serial(self):
        # Sharded epochs apply per-shard deltas from the epoch-start
        # snapshot, so results differ from serial — but only by the
        # cross-shard interaction terms within one epoch.
        serial = self._train()
        sharded = self._train(ParallelConfig(num_workers=1, num_shards=4))
        assert serial._input_vectors.shape == sharded._input_vectors.shape
        diff = np.abs(serial._input_vectors - sharded._input_vectors).max()
        assert diff < 0.5

    def test_deterministic_across_runs(self):
        parallel = ParallelConfig(num_workers=2, num_shards=3)
        first = self._train(parallel)
        second = self._train(parallel)
        assert np.array_equal(first._input_vectors, second._input_vectors)


# ----------------------------------------------------------------------
# Pipeline end-to-end + CLI
def _pipeline_config(num_workers: int, num_shards=None, mp_context=None) -> TDMatchConfig:
    config = TDMatchConfig.fast()
    config.compression = CompressionConfig(enabled=True, method="msp", ratio=1.0)
    config.parallel = ParallelConfig(num_workers, num_shards, mp_context)
    return config


def _spy_pools(monkeypatch):
    """Record every ``WorkerPool.run`` as (label, task function, task count)
    and the name of every segment an arena creates."""
    runs, segments = [], []
    run, create = WorkerPool.run, ShmArena._create

    def spy_run(pool, fn, tasks):
        tasks = list(tasks)
        runs.append((pool.label, fn, len(tasks)))
        return run(pool, fn, tasks)

    def spy_create(arena, nbytes):
        segment = create(arena, nbytes)
        segments.append(segment.name)
        return segment

    monkeypatch.setattr(WorkerPool, "run", spy_run)
    monkeypatch.setattr(ShmArena, "_create", spy_create)
    return runs, segments


class TestPipelineParallel:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.datasets import ScenarioSize, generate_scenario

        return generate_scenario(
            "imdb_wt", size=ScenarioSize(n_entities=12, n_queries=16, n_distractors=6), seed=7
        )

    def _fit(self, scenario, num_workers, num_shards=None, mp_context=None):
        pipeline = TDMatch(_pipeline_config(num_workers, num_shards, mp_context), seed=23)
        pipeline.fit(scenario.first, scenario.second)
        return pipeline

    def test_single_shard_fit_matches_serial(self, scenario, monkeypatch):
        # The shard count picks the code.  A one-shard plan enters no
        # sharded entry point, runs no pool and creates no segment, even at
        # two workers; a two-shard plan enters both at zero workers.
        sharded = []
        iter_walks = ParallelWalkEngine.iter_walks
        dag_union = parallel_compression.parallel_grouped_dag_union

        def spy_iter_walks(engine, seed=None):
            sharded.append("walks")
            return iter_walks(engine, seed=seed)

        def spy_dag_union(*args, **kwargs):
            sharded.append("compression")
            return dag_union(*args, **kwargs)

        monkeypatch.setattr(ParallelWalkEngine, "iter_walks", spy_iter_walks)
        monkeypatch.setattr(parallel_compression, "parallel_grouped_dag_union", spy_dag_union)
        runs, segments = _spy_pools(monkeypatch)
        serial = self._fit(scenario, 0)
        single = self._fit(scenario, 2, num_shards=1)
        assert sharded == [] and runs == [] and segments == []
        assert np.array_equal(
            serial.state.model._input_vectors, single.state.model._input_vectors
        )
        assert single.match(k=10).as_id_lists() == serial.match(k=10).as_id_lists()
        self._fit(scenario, 0, num_shards=2)
        assert set(sharded) == {"walks", "compression"}

    def test_worker_count_invariant_at_fixed_shards(self, scenario, monkeypatch):
        # The worker count picks the process: at two shards, zero, one and
        # two workers run the same task functions on the same plan through
        # WorkerPool.run, unlink every segment they create, and fit the
        # same model.
        runs, _ = _spy_pools(monkeypatch)
        fits, plans = {}, {}
        for num_workers in (0, 1, 2):
            before = ShmArena.live_segments()
            fits[num_workers] = self._fit(scenario, num_workers, num_shards=2)
            assert ShmArena.live_segments() == before
            plans[num_workers] = list(runs)
            runs.clear()
        assert plans[0] == plans[1] == plans[2]
        assert {fn for _, fn, _ in plans[1]} == {
            _walk_shard_task,
            _dag_union_task,
            _train_shard_task,
        }
        assert {count for _, _, count in plans[1]} == {2}
        one = fits[1]
        for num_workers in (0, 2):
            assert np.array_equal(
                one.state.model._input_vectors, fits[num_workers].state.model._input_vectors
            )
            assert fits[num_workers].match(k=10).as_id_lists() == one.match(k=10).as_id_lists()

    def test_spawn_workers_match_in_process_fit(self, scenario):
        # Spawned workers import the task functions afresh and attach the
        # segments by name; the fit must equal the in-process one.
        in_process = self._fit(scenario, 1, num_shards=2)
        before = ShmArena.live_segments()
        spawned = self._fit(scenario, 2, num_shards=2, mp_context="spawn")
        assert ShmArena.live_segments() == before
        for matrix in ("_input_vectors", "_output_vectors"):
            assert np.array_equal(
                getattr(in_process.state.model, matrix), getattr(spawned.state.model, matrix)
            )
        assert spawned.match(k=10).as_id_lists() == in_process.match(k=10).as_id_lists()


class TestCliNumWorkers:
    def test_flag_parses_into_config(self):
        args = cli.build_parser().parse_args(["run", "--num-workers", "3"])
        assert args.num_workers == 3

    def test_cli_run_with_workers(self, capsys):
        code = cli.main(
            [
                "run", "--scenario", "imdb_wt", "--size", "tiny", "--k", "5",
                "--num-walks", "4", "--walk-length", "8", "--vector-size", "32",
                "--epochs", "1", "--num-workers", "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
