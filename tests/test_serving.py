"""Tests for the serving subsystem: persistence, incremental fit, reports."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.core.config import TDMatchConfig
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.pipeline import TDMatch
from repro.corpus.documents import Document, TextCorpus
from repro.datasets import ScenarioSize, generate_scenario
from repro.eval.metrics import evaluate_rankings
from repro.serving import (
    INDEX_FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    IndexCorruptionError,
    IndexFormatError,
)
from repro.serving.index import config_from_dict, read_index, write_index

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=3)


@pytest.fixture(scope="module")
def text_scenario():
    return generate_scenario("snopes", size=ScenarioSize.tiny(), seed=3)


@pytest.fixture(scope="module")
def fitted(scenario):
    pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
    pipeline.fit(scenario.first, scenario.second)
    return pipeline


@pytest.fixture
def index_path(fitted, tmp_path):
    path = str(tmp_path / "index.tdm")
    fitted.save(path)
    return path


# ----------------------------------------------------------------------
# Raw container
class TestIndexContainer:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3),
        }
        write_index(path, {"hello": "world"}, arrays)
        header, loaded = read_index(path)
        assert header["hello"] == "world"
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_mmap_arrays_are_read_only_memmaps(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        write_index(path, {}, {"a": np.arange(5, dtype=np.float32)})
        _, arrays = read_index(path)
        assert isinstance(arrays["a"], np.memmap)
        assert not arrays["a"].flags.writeable

    def test_blobs_are_64_byte_aligned(self, tmp_path):
        path = str(tmp_path / "raw.tdm")
        write_index(
            path,
            {},
            {"a": np.arange(3, dtype=np.int8), "b": np.arange(4, dtype=np.int8)},
        )
        header, _ = read_index(path)
        for meta in header["arrays"].values():
            assert meta["offset"] % 64 == 0

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "junk.tdm")
        with open(path, "wb") as handle:
            handle.write(b"this is definitely not an index file")
        with pytest.raises(IndexFormatError, match="bad magic"):
            read_index(path)

    def test_version_mismatch_raises_with_versions_in_message(self, tmp_path, fitted):
        path = str(tmp_path / "index.tdm")
        fitted.save(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:8] + struct.pack("<I", 999) + data[12:])
        with pytest.raises(IndexFormatError, match="999"):
            TDMatch.load(path)

    def test_format_version_is_two(self):
        # v2 added the header CRC and per-blob CRC32s; v1 stays readable.
        assert INDEX_FORMAT_VERSION == 2
        assert SUPPORTED_VERSIONS == (1, 2)


# ----------------------------------------------------------------------
# Hostile headers: every malformed container fails with the library's own
# exceptions — never a raw struct/json/numpy error.
def _raw_index(tmp_path, arrays=None) -> str:
    path = str(tmp_path / "hostile.tdm")
    write_index(path, {"k": "v"}, arrays or {"a": np.arange(6, dtype=np.int64)})
    return path


def _drop_output_vectors(path: str, **serving) -> None:
    """Re-write the index at ``path`` without its ``w2v_output`` array, as a
    save with ``serving.include_output_vectors=False`` wrote it before that
    field was removed; ``serving`` items go into the header's config."""
    header, arrays = read_index(path)
    arrays = {name: np.array(array) for name, array in arrays.items() if name != "w2v_output"}
    del header["arrays"]
    header["config"]["serving"].update(serving)
    write_index(path, header, arrays)


def _rewrite_header(path: str, mutate) -> None:
    """Decode the v2 container, let ``mutate`` edit the header dict, repack.

    The header CRC is recomputed so the corruption under test is the
    *directory contents*, not a checksum mismatch.
    """
    preamble_struct = struct.Struct("<8sIQ")
    with open(path, "rb") as handle:
        preamble = handle.read(preamble_struct.size)
        magic, version, header_len = preamble_struct.unpack(preamble)
        handle.read(4)  # header CRC, recomputed below
        header = json.loads(handle.read(header_len).decode("utf-8"))
        data_start = (preamble_struct.size + 4 + header_len + 63) // 64 * 64
        handle.seek(data_start)
        data = handle.read()
    mutate(header)
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    new_data_start = (preamble_struct.size + 4 + len(payload) + 63) // 64 * 64
    with open(path, "wb") as handle:
        handle.write(preamble_struct.pack(magic, version, len(payload)))
        handle.write(struct.pack("<I", zlib.crc32(payload)))
        handle.write(payload)
        handle.write(b"\x00" * (new_data_start - preamble_struct.size - 4 - len(payload)))
        handle.write(data)


class TestHostileHeaders:
    def test_truncated_preamble(self, tmp_path):
        path = str(tmp_path / "stub.tdm")
        with open(path, "wb") as handle:
            handle.write(b"TDMIDX\x00\x00\x01")  # magic + 1 byte
        with pytest.raises(IndexFormatError, match="truncated inside the preamble"):
            read_index(path)

    def test_header_length_past_eof(self, tmp_path):
        path = _raw_index(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(12)
            handle.write(struct.pack("<Q", 10**9))
        with pytest.raises(IndexCorruptionError, match="hostile header length"):
            read_index(path)

    def test_unknown_format_version(self, tmp_path):
        path = _raw_index(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<I", 7))
        with pytest.raises(IndexFormatError, match="version 7"):
            read_index(path)

    def test_directory_offset_out_of_bounds(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["offset"] = 10**9

        _rewrite_header(path, mutate)
        with pytest.raises(IndexCorruptionError, match="extends past the end"):
            read_index(path)

    def test_directory_offsets_overlapping(self, tmp_path):
        path = _raw_index(
            tmp_path,
            arrays={
                "a": np.arange(16, dtype=np.int64),
                "b": np.arange(16, dtype=np.int64),
            },
        )

        def mutate(header):
            # Point b into a's extent.
            header["arrays"]["b"]["offset"] = header["arrays"]["a"]["offset"] + 8

        _rewrite_header(path, mutate)
        with pytest.raises(IndexCorruptionError, match="overlap"):
            read_index(path)

    def test_negative_dimension(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["shape"] = [-6]

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="negative"):
            read_index(path)

    def test_unparsable_dtype(self, tmp_path):
        path = _raw_index(tmp_path)

        def mutate(header):
            header["arrays"]["a"]["dtype"] = "no-such-dtype"

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="malformed directory entry"):
            read_index(path)

    def test_header_not_json(self, tmp_path):
        path = _raw_index(tmp_path)
        preamble_struct = struct.Struct("<8sIQ")
        payload = b"{not json"
        with open(path, "wb") as handle:
            handle.write(preamble_struct.pack(b"TDMIDX\x00\x00", 2, len(payload)))
            handle.write(struct.pack("<I", zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(IndexFormatError, match="not valid JSON"):
            read_index(path)

    def test_missing_array_directory(self, tmp_path):
        path = _raw_index(tmp_path)
        preamble_struct = struct.Struct("<8sIQ")
        payload = json.dumps({"config": {}}).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(preamble_struct.pack(b"TDMIDX\x00\x00", 2, len(payload)))
            handle.write(struct.pack("<I", zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(IndexFormatError, match="array directory"):
            read_index(path)

    def test_unknown_verify_mode_rejected(self, tmp_path):
        path = _raw_index(tmp_path)
        with pytest.raises(ValueError, match="verify mode"):
            read_index(path, verify="paranoid")

    @pytest.mark.parametrize("verify", ["header", "full"])
    @pytest.mark.parametrize(
        "mutation", ["duplicate_token", "one_token_short", "one_token_extra", "counts_short"]
    )
    def test_vocabulary_must_name_each_embedding_row(self, index_path, verify, mutation):
        # Token i names row i of the embedding matrices.  A repeated token
        # would be merged, shifting every later token's row; a token list
        # longer than the matrices would index past them.
        def mutate(header):
            tokens = header["vocab"]["tokens"]
            counts = header["vocab"]["counts"]
            if mutation == "duplicate_token":
                tokens[1] = tokens[0]
            elif mutation == "one_token_short":
                del tokens[-1], counts[-1]
            elif mutation == "one_token_extra":
                tokens.append("extra-token")
                counts.append(1)
            else:
                del counts[-1]

        _rewrite_header(index_path, mutate)
        with pytest.raises(IndexFormatError, match="vocabulary"):
            TDMatch.load(index_path, verify=verify)

    # Each used to escape the loader as a raw ValueError, KeyError or
    # TypeError, or (``retrieval: 5``) to load and fail in match().
    HOSTILE_CONFIG_AND_METADATA = {
        "chunk_size_zero": lambda h: h["config"]["retrieval"].update(chunk_size=0),
        "section_not_object": lambda h: h["config"].update(retrieval=5),
        "unknown_backend": lambda h: h["config"]["retrieval"].update(backend="ann"),
        "vector_size_not_int": lambda h: h["config"]["word2vec"].update(vector_size="x"),
        "metadata_missing": lambda h: h.pop("first_metadata"),
        "metadata_not_object": lambda h: h.update(first_metadata=[1, 2, 3]),
        "metadata_label_not_string": lambda h: h.update(second_metadata={"r": 1}),
    }

    @pytest.mark.parametrize("verify", ["header", "full"])
    @pytest.mark.parametrize("mutation", sorted(HOSTILE_CONFIG_AND_METADATA))
    def test_hostile_config_and_metadata(self, index_path, verify, mutation):
        _rewrite_header(index_path, self.HOSTILE_CONFIG_AND_METADATA[mutation])
        with pytest.raises(IndexFormatError, match="config|metadata"):
            TDMatch.load(index_path, verify=verify)

    # Each used to escape the loader as a raw KeyError, TypeError or
    # ValueError, or to load and then fail or misbehave at the first
    # report() or add_*().
    HOSTILE_REGISTRY_AND_ARRAYS = {
        "vocab_missing": lambda h: h.pop("vocab"),
        "vocab_not_object": lambda h: h.update(vocab=[1, 2, 3]),
        "vocab_without_min_count": lambda h: h["vocab"].pop("min_count"),
        "graph_missing": lambda h: h.pop("graph"),
        "graph_labels_missing": lambda h: h["graph"].pop("labels"),
        "graph_labels_one_short": lambda h: h["graph"]["labels"].pop(),
        "graph_kind_unknown": lambda h: h["graph"]["kinds"].__setitem__(0, "hyperedge"),
        "w2v_input_missing": lambda h: h["arrays"].pop("w2v_input"),
        "csr_indptr_missing": lambda h: h["arrays"].pop("csr_indptr"),
        "filter_stats_unknown_keys": lambda h: h.update(filter_stats={"kept": 3}),
        "seed_a_list": lambda h: h.update(seed=[1, 2]),
        "seed_not_numeric": lambda h: h.update(seed="abc"),
        "corpus_kinds_a_number": lambda h: h.update(corpus_kinds=5),
        "intersect_anchor_unknown": lambda h: h.update(intersect_anchor="third"),
    }

    @pytest.mark.parametrize("mutation", sorted(HOSTILE_REGISTRY_AND_ARRAYS))
    def test_hostile_registry_and_arrays(self, index_path, mutation):
        _rewrite_header(index_path, self.HOSTILE_REGISTRY_AND_ARRAYS[mutation])
        with pytest.raises(IndexFormatError):
            TDMatch.load(index_path)

    # Each used to load: an id outside [0, n) then raised a raw numpy
    # IndexError in walks or blocking, and a bad indptr read wrong rows.
    HOSTILE_CSR = {
        "index_out_of_range": lambda indptr, indices: indices.__setitem__(0, len(indptr) - 1),
        "index_negative": lambda indptr, indices: indices.__setitem__(0, -1),
        "indptr_decreasing": lambda indptr, indices: indptr.__setitem__(1, indptr[2] + 1),
        "indptr_first_not_zero": lambda indptr, indices: indptr.__setitem__(0, 1),
        "indptr_last_not_len": lambda indptr, indices: indptr.__setitem__(-1, len(indices) - 1),
    }

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("verify", ["none", "header", "full"])
    @pytest.mark.parametrize("mutation", sorted(HOSTILE_CSR))
    def test_hostile_csr_arrays(self, index_path, verify, mmap, mutation):
        # Rewritten through write_index: every CRC is valid, so even
        # verify="full" reaches the array check.
        header, arrays = read_index(index_path)
        arrays = {name: np.array(array) for name, array in arrays.items()}
        del header["arrays"]
        self.HOSTILE_CSR[mutation](arrays["csr_indptr"], arrays["csr_indices"])
        write_index(index_path, header, arrays)
        with pytest.raises(IndexFormatError, match="malformed CSR arrays"):
            TDMatch.load(index_path, mmap=mmap, verify=verify)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_a_republish_during_a_load_is_not_served(self, index_path, monkeypatch, mmap):
        # A save that atomically replaces the index after the load's checked
        # read must not reach the served pipeline: a load reads the file once.
        hostile = index_path + ".hostile"
        header, arrays = read_index(index_path)
        arrays = {name: np.array(array) for name, array in arrays.items()}
        del header["arrays"]
        arrays["csr_indices"][0] = 1_000_000
        write_index(hostile, header, arrays)
        calls = []

        def read_then_republish(*args, **kwargs):
            calls.append(args)
            result = read_index(*args, **kwargs)
            if os.path.exists(hostile):
                os.replace(hostile, index_path)
            return result

        monkeypatch.setattr("repro.serving.index.read_index", read_then_republish)
        graph = TDMatch.load(index_path, mmap=mmap).graph
        assert len(calls) == 1
        assert graph.indices.max() < graph.num_nodes()

    def test_config_section_must_be_an_object(self):
        with pytest.raises(TypeError, match="'retrieval' is not an object"):
            config_from_dict({"retrieval": 5})


# ----------------------------------------------------------------------
# Save / load roundtrip
class TestSaveLoadRoundtrip:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_rankings_identical_after_roundtrip(self, fitted, index_path, mmap):
        expected = fitted.match_result(k=10).to_dict()
        loaded = TDMatch.load(index_path, mmap=mmap)
        actual = loaded.match_result(k=10).to_dict()
        # Byte-identical serving: same candidates, same float scores.
        assert actual["rankings"] == expected["rankings"]

    def test_mmap_embeddings_are_shared_pages(self, index_path):
        loaded = TDMatch.load(index_path, mmap=True)
        vectors = loaded.model._input_vectors
        assert isinstance(vectors, np.memmap)
        assert not vectors.flags.writeable

    def test_default_mmap_mode_comes_from_saved_config(self, scenario, tmp_path):
        config = TDMatchConfig.fast()
        config.serving.mmap = True
        pipeline = TDMatch(config, seed=7).fit(scenario.first, scenario.second)
        path = str(tmp_path / "mmap_default.tdm")
        pipeline.save(path)
        assert isinstance(TDMatch.load(path).model._input_vectors, np.memmap)
        assert not isinstance(
            TDMatch.load(path, mmap=False).model._input_vectors, np.memmap
        )

    def test_loaded_graph_reads_the_index_arrays(self, index_path):
        # The loaded graph is the header's registry over the mapped arrays:
        # a load builds no adjacency of its own.
        graph = TDMatch.load(index_path, mmap=True).graph
        for array in (graph.indptr, graph.indices):
            assert not array.flags.writeable and not array.flags.owndata

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loaded_graph_equals_the_fitted_one(self, fitted, index_path, mmap):
        original, restored = fitted.graph, TDMatch.load(index_path, mmap=mmap).graph
        assert restored.labels == original.labels
        assert restored.kinds == original.kinds
        assert restored.corpora == original.corpora
        assert restored.roles == original.roles
        assert np.array_equal(restored.indptr, original.indptr)
        assert np.array_equal(restored.indices, original.indices)
        assert restored.num_edges() == original.num_edges()

    def test_walks_on_a_loaded_graph_equal_the_fitted_ones(self, fitted, index_path):
        from repro.graph.walk_engine import CSRWalkEngine
        from repro.graph.walks import RandomWalkConfig

        config = RandomWalkConfig(num_walks=2, walk_length=6)
        expected = list(CSRWalkEngine(fitted.graph, config).iter_walks(seed=5))
        for mmap in (True, False):
            graph = TDMatch.load(index_path, mmap=mmap).graph
            walks = list(CSRWalkEngine(graph, config).iter_walks(seed=5))
            assert len(walks) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(walks, expected))

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            TDMatch(TDMatchConfig.fast()).save(str(tmp_path / "nope.tdm"))

    def test_config_roundtrips_through_index(self, index_path, fitted):
        loaded = TDMatch.load(index_path)
        assert loaded.config.walks.num_walks == fitted.config.walks.num_walks
        assert loaded.config.word2vec.vector_size == fitted.config.word2vec.vector_size
        assert loaded.config.builder.filter_strategy_name == (
            fitted.config.builder.filter_strategy_name
        )

    def test_index_with_removed_engine_keys_still_loads(self, scenario, index_path, tmp_path):
        """An index saved while the fit stages had engine switches serves unchanged.

        Saved config keys that are no longer fields are skipped on load, and
        the top-level ``"engine"`` header key is ignored.
        """
        legacy_path = str(tmp_path / "legacy.tdm")
        shutil.copyfile(index_path, legacy_path)

        def add_engine_keys(header):
            config = header["config"]
            config["builder"]["engine"] = "reference"
            config["walks"]["walk_engine"] = "python"
            config["word2vec"]["trainer"] = "reference"
            config["compression"]["engine"] = "reference"
            config["compression"]["max_paths_per_pair"] = 16
            header["engine"] = "reference"

        _rewrite_header(legacy_path, add_engine_keys)
        header, _arrays = read_index(legacy_path)
        assert header["engine"] == header["config"]["builder"]["engine"] == "reference"
        for verify in ("none", "header", "full"):
            for mmap in (False, True):
                expected = TDMatch.load(index_path, mmap=mmap, verify=verify)
                legacy = TDMatch.load(legacy_path, mmap=mmap, verify=verify)
                assert (
                    legacy.match_result(k=10).to_dict()["rankings"]
                    == expected.match_result(k=10).to_dict()["rankings"]
                ), (verify, mmap)
        row = list(scenario.second.rows)[0]
        labels = legacy.add_records(
            [("legacy-new-row", dict(row.non_null_items()))], side="second"
        )
        assert len(labels) == 1
        assert "legacy-new-row" in legacy.state.built.second_metadata

    def test_index_with_timing_notes_still_loads(self, index_path, tmp_path):
        """An index whose header still carries the ``notes`` key serves unchanged.

        The loader ignores the key: a loaded pipeline reports only what it
        has measured itself.
        """
        legacy_path = str(tmp_path / "notes.tdm")
        shutil.copyfile(index_path, legacy_path)

        def add_notes(header):
            header["notes"] = {
                "walk_engine": "csr",
                "w2v_pairs_per_sec": "123456",
                "compared_pairs": "42",
                "serving_mmap": "True",
            }

        _rewrite_header(legacy_path, add_notes)
        for mmap in (False, True):
            expected = TDMatch.load(index_path, mmap=mmap, verify="full")
            legacy = TDMatch.load(legacy_path, mmap=mmap, verify="full")
            assert (
                legacy.match_result(k=10).to_dict()["rankings"]
                == expected.match_result(k=10).to_dict()["rankings"]
            )
            report = legacy.report()
            assert list(report["timings"]) == ["match"]
            assert "pairs_per_sec" not in report["model"]
            assert report["model"]["mmap"] is mmap

    # Config fields deleted once nothing outside the tests set them, at the
    # values every index saved before then holds.
    REMOVED_CONFIG_KEYS = {
        "retrieval": {
            "dtype": "float64", "max_hops": 2, "max_block_size": None, "fallback_to_full": True,
        },
        "serving": {"include_output_vectors": True},
        "incremental": {
            "epochs": None, "learning_rate": None, "num_walks": None, "neighborhood_hops": 1,
        },
        "builder": {"add_column_nodes": True, "tfidf_top_k": 10},
        "expansion": {"max_relations_per_node": None, "remove_sinks": True},
        "merge": {"bucket_width": None},
    }
    REMOVED_PREPROCESS_KEYS = {
        "remove_stopwords": True, "lowercase": True, "min_token_length": 2, "keep_numbers": True,
    }

    @pytest.mark.parametrize("mmap", [True, False])
    def test_index_with_removed_config_keys_still_loads(
        self, fitted, scenario, index_path, tmp_path, mmap
    ):
        legacy_path = str(tmp_path / "removed-keys.tdm")
        header, arrays = read_index(index_path)
        arrays = {name: np.array(array) for name, array in arrays.items()}
        del header["arrays"]
        for section, keys in self.REMOVED_CONFIG_KEYS.items():
            header["config"][section].update(keys)
        header["config"]["builder"]["preprocess"].update(self.REMOVED_PREPROCESS_KEYS)
        write_index(legacy_path, header, arrays)
        legacy = TDMatch.load(legacy_path, mmap=mmap, verify="full")
        expected = fitted.match_result(k=10).to_dict()["rankings"]
        assert legacy.match_result(k=10).to_dict()["rankings"] == expected
        assert not hasattr(legacy.config.retrieval, "max_hops")
        assert not hasattr(legacy.config.builder.preprocess, "lowercase")
        row = list(scenario.second.rows)[0]
        assert legacy.add_records([("legacy-new-row", dict(row.non_null_items()))]) == [
            "row::legacy-new-row"
        ]

    def test_index_with_removed_blocking_key_still_loads(self, index_path, tmp_path):
        legacy_path = str(tmp_path / "blocking.tdm")
        shutil.copyfile(index_path, legacy_path)
        _rewrite_header(legacy_path, lambda h: h["config"]["retrieval"].update(blocking="token"))
        legacy = TDMatch.load(legacy_path)
        assert not hasattr(legacy.config.retrieval, "blocking")
        assert (
            legacy.match_result(k=10).to_dict()["rankings"]
            == TDMatch.load(index_path).match_result(k=10).to_dict()["rankings"]
        )

    def test_index_with_removed_parallel_toggles_still_loads(self, index_path, tmp_path):
        legacy_path = str(tmp_path / "toggles.tdm")
        shutil.copyfile(index_path, legacy_path)

        def add_toggles(header):
            for stage in ("walks", "compression", "word2vec"):
                header["config"]["parallel"][f"shard_{stage}"] = False

        _rewrite_header(legacy_path, add_toggles)
        legacy = TDMatch.load(legacy_path)
        assert not hasattr(legacy.config.parallel, "shard_walks")
        assert (
            legacy.match_result(k=10).to_dict()["rankings"]
            == TDMatch.load(index_path).match_result(k=10).to_dict()["rankings"]
        )

    def test_query_in_fresh_subprocess_without_fit(self, index_path, fitted):
        """The two-process story: fit-save here, load-query in a new process."""
        expected = fitted.match_result(k=5).to_dict()["rankings"]
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        output = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "--index", index_path,
             "--k", "5", "--json"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        payload = json.loads(output)
        assert payload["result"]["rankings"] == expected


# ----------------------------------------------------------------------
# Output-vector-free (serving-only) indexes
class TestServingOnlyIndex:
    @pytest.fixture
    def slim_path(self, index_path):
        _drop_output_vectors(index_path, include_output_vectors=False)
        return index_path

    @pytest.mark.parametrize("mmap", [True, False])
    def test_slim_index_serves_matches(self, fitted, slim_path, mmap):
        loaded = TDMatch.load(slim_path, mmap=mmap)
        assert loaded.model._output_vectors is None
        assert (
            loaded.match_result(k=10).to_dict()["rankings"]
            == fitted.match_result(k=10).to_dict()["rankings"]
        )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_slim_index_rejects_incremental_fit(self, scenario, slim_path, mmap):
        loaded = TDMatch.load(slim_path, mmap=mmap)
        built, model = loaded.state.built, loaded.model
        before = (
            loaded.graph, dict(built.second_metadata), list(model.vocab.tokens),
            loaded._delta_count, loaded.match_result(k=10).to_dict()["rankings"],
        )
        row = list(scenario.second.rows)[0]
        with pytest.raises(PipelineError, match="output vectors"):
            loaded.add_records([("new-row", dict(row.non_null_items()))], side="second")
        with pytest.raises(PipelineError, match="output vectors"):
            loaded.add_documents([("new", "some text")], side="first")
        after = (
            loaded.graph, dict(built.second_metadata), list(model.vocab.tokens),
            loaded._delta_count, loaded.match_result(k=10).to_dict()["rankings"],
        )
        assert after[0] is before[0]
        assert after[1:] == before[1:]

    def test_slim_model_fine_tune_raises_before_growing_vocab(self, slim_path):
        model = TDMatch.load(slim_path).model
        vocab_size = len(model.vocab)
        with pytest.raises(RuntimeError, match="output vectors"):
            model.fine_tune([["unseen-token-a", "unseen-token-b"]])
        assert len(model.vocab) == vocab_size
        assert model._input_vectors.shape[0] == vocab_size
        assert model.vector("unseen-token-a") is None


# ----------------------------------------------------------------------
# Incremental fit
class TestIncrementalFit:
    def _reduced_fit(self, text_scenario, holdout=2):
        docs = list(text_scenario.second)
        reduced = TextCorpus(docs[holdout:], name=text_scenario.second.name)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
        pipeline.fit(text_scenario.first, reduced)
        return pipeline, docs[:holdout]

    def test_add_documents_makes_new_candidates_matchable(self, text_scenario):
        pipeline, held = self._reduced_fit(text_scenario)
        labels = pipeline.add_documents(held, side="second")
        assert len(labels) == len(held)
        candidates = {
            candidate
            for ranking in pipeline.match(k=len(text_scenario.second))
            for candidate, _ in ranking.candidates
        }
        for doc in held:
            assert doc.doc_id in candidates

    def test_incremental_converges_to_refit_mrr(self, text_scenario):
        full = TDMatch(TDMatchConfig.fast(), seed=7)
        full.fit(text_scenario.first, text_scenario.second)
        refit_mrr = evaluate_rankings(
            "refit", full.match(k=10), text_scenario.gold, ks=(1, 5)
        ).mrr
        pipeline, held = self._reduced_fit(text_scenario)
        pipeline.add_documents(held, side="second")
        incremental_mrr = evaluate_rankings(
            "inc", pipeline.match(k=10), text_scenario.gold, ks=(1, 5)
        ).mrr
        assert abs(refit_mrr - incremental_mrr) <= 0.05

    def test_add_records_on_table_side(self, scenario):
        from repro.corpus.table import Table

        rows = list(scenario.second.rows)
        reduced = Table(scenario.second.name, scenario.second.columns)
        for row in rows[1:]:
            reduced.add_row(row)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=7)
        pipeline.fit(scenario.first, reduced)
        labels = pipeline.add_records([rows[0]], side="second")
        assert len(labels) == 1
        assert rows[0].row_id in pipeline.state.built.second_metadata

    def test_delta_walks_start_at_the_new_nodes_and_their_neighbours(self, scenario, monkeypatch):
        from repro.corpus.table import Table
        from repro.serving import incremental

        rows = list(scenario.second.rows)
        reduced = Table(scenario.second.name, scenario.second.columns)
        for row in rows[1:]:
            reduced.add_row(row)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=7).fit(scenario.first, reduced)
        before = set(pipeline.graph.labels)
        walk_configs, make_walk_engine = [], incremental.make_walk_engine

        def spy(graph, config, **kwargs):
            walk_configs.append(config)
            return make_walk_engine(graph, config, **kwargs)

        monkeypatch.setattr(incremental, "make_walk_engine", spy)
        pipeline.add_records([rows[0]], side="second")
        graph = pipeline.graph
        new = [label for label in graph.labels if label not in before]
        reached = set(new).union(*(graph.neighbors(label) for label in new))
        [walks] = walk_configs
        assert walks.start_nodes == [label for label in graph.labels if label in reached]
        assert len(walks.start_nodes) > len(new)
        assert walks.num_walks == pipeline.config.walks.num_walks
        assert pipeline.model.stats.epochs == pipeline.config.word2vec.epochs

    @pytest.mark.parametrize("kind", ["documents", "records"])
    @pytest.mark.parametrize("batch", ["existing", "new+existing", "new+new"])
    def test_duplicate_id_raises(self, text_scenario, scenario, kind, batch):
        # The whole batch is checked before the first mutation: a rejected
        # batch leaves no id mapped without a graph node and embedding row.
        if kind == "documents":
            pipeline, _held = self._reduced_fit(text_scenario)
            add, contents = pipeline.add_documents, "brand new claim text"
        else:
            pipeline = TDMatch(TDMatchConfig.fast(), seed=7).fit(scenario.first, scenario.second)
            add, contents = pipeline.add_records, dict(next(iter(scenario.second)).non_null_items())
        built, model = pipeline.state.built, pipeline.model
        existing = list(built.second_metadata)[0]
        ids = {"existing": [existing], "new+existing": ["new", existing], "new+new": ["new", "new"]}
        mapping, nodes, vocab = dict(built.second_metadata), pipeline.graph.num_nodes(), len(model.vocab)
        with pytest.raises(PipelineError, match="already exists"):
            add([(object_id, contents) for object_id in ids[batch]], side="second")
        assert dict(built.second_metadata) == mapping
        assert pipeline.graph.num_nodes() == nodes
        assert len(model.vocab) == vocab
        assert len(add([("new", contents)], side="second")) == 1
        assert "new" in built.second_metadata

    def test_rejected_batch_leaves_graph_and_index_as_they_were(self, scenario, tmp_path):
        # An index without output vectors rejects add_records in the
        # refresh, after the graph took the batch.  The rows put one existing
        # cell value under every column, so the batch also adds edges between
        # existing nodes (column → term); those must go with the new nodes.
        config = TDMatchConfig.fast()
        config.builder.filter_strategy_name = "normal"
        path = str(tmp_path / "table_first.tdm")
        TDMatch(config, seed=7).fit(scenario.second, scenario.first).save(path)
        _drop_output_vectors(path)
        loaded = TDMatch.load(path)
        nodes, edges = loaded.graph.num_nodes(), loaded.graph.num_edges()
        value = next(iter(scenario.second)).non_null_items()[0][1]
        row = {name: value for name in scenario.second.column_names}
        with pytest.raises(PipelineError, match="output vectors"):
            loaded.add_records([("new-row", row)], side="first")
        assert (loaded.graph.num_nodes(), loaded.graph.num_edges()) == (nodes, edges)
        assert "new-row" not in loaded.state.built.first_metadata
        resaved = str(tmp_path / "resaved.tdm")
        loaded.save(resaved)
        with open(path, "rb") as before, open(resaved, "rb") as after:
            assert before.read() == after.read()

    def test_a_saved_delta_loads_with_its_graph(self, text_scenario, tmp_path):
        # Appended and masked graphs save like fitted ones: the load holds
        # the same graph and ranks as the pipeline that was saved.
        pipeline, held = self._reduced_fit(text_scenario)
        pipeline.add_documents(held, side="second")
        pipeline.remove([list(pipeline.state.built.second_metadata)[0]], side="second")
        path = str(tmp_path / "delta.tdm")
        pipeline.save(path)
        loaded = TDMatch.load(path, mmap=True)
        assert loaded.graph.labels == pipeline.graph.labels
        assert np.array_equal(loaded.graph.indptr, pipeline.graph.indptr)
        assert np.array_equal(loaded.graph.indices, pipeline.graph.indices)
        expected = pipeline.match_result(k=10).to_dict()["rankings"]
        assert loaded.match_result(k=10).to_dict()["rankings"] == expected

    def test_delta_terms_follow_the_frozen_filter(self, text_scenario):
        # An intersect filter lets only its anchor side bring new term nodes;
        # the other side's unknown terms are dropped and its known ones linked.
        pipeline, _ = self._reduced_fit(text_scenario)
        anchor = pipeline.state.built.intersect_anchor
        other = "second" if anchor == "first" else "first"
        preprocessor = pipeline._graph_builder()._preprocessor
        known = next(t for t in pipeline.graph.data_nodes() if preprocessor.terms(t) == [t])
        before = set(pipeline.graph.labels)
        [label] = pipeline.add_documents([("off-anchor", f"{known} qqqzzz")], side=other)
        assert set(pipeline.graph.labels) - before == {label}
        assert known in pipeline.graph.neighbors(label)
        assert set(pipeline.graph.neighbors(label)) <= before
        [label] = pipeline.add_documents([("on-anchor", "qqqzzz")], side=anchor)
        assert pipeline.graph.neighbors(label) == ["qqqzzz"]

    def test_delta_rows_link_terms_to_their_fit_time_columns(self, scenario):
        config = TDMatchConfig.fast()
        config.builder.filter_strategy_name = "normal"
        pipeline = TDMatch(config, seed=7).fit(scenario.second, scenario.first)
        column = scenario.second.column_names[0]
        [col_label] = [
            label
            for label in pipeline.graph.metadata_nodes(role="column")
            if label.endswith(f"::{column}")
        ]
        before = set(pipeline.graph.neighbors(col_label))
        [label] = pipeline.add_records(
            [("new-row", {column: "qqqzzz", "unseen column": "wwwxxx"})], side="first"
        )
        graph = pipeline.graph
        assert {"qqqzzz", "wwwxxx"} <= set(graph.neighbors(label))
        assert set(graph.neighbors(col_label)) == before | {"qqqzzz"}
        assert not [c for c in graph.metadata_nodes(role="column") if "unseen" in c]

    def test_remove_drops_candidate(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        victim = list(pipeline.state.built.second_metadata)[0]
        labels = pipeline.remove([victim], side="second")
        assert victim not in pipeline.state.built.second_metadata
        assert labels[0] not in pipeline.graph
        candidates = {
            candidate
            for ranking in pipeline.match(k=50)
            for candidate, _ in ranking.candidates
        }
        assert victim not in candidates

    def test_remove_applies_the_ids_before_an_unknown_one(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        first, second = list(pipeline.state.built.second_metadata)[:2]
        label = pipeline.state.built.second_metadata[first]
        nodes = pipeline.graph.num_nodes()
        with pytest.raises(PipelineError, match="before the error have been applied"):
            pipeline.remove([first, "no-such-id", second], side="second")
        assert label not in pipeline.graph
        assert pipeline.graph.num_nodes() == nodes - 1
        assert second in pipeline.state.built.second_metadata

    def test_removed_id_can_be_added_again(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        victim = list(pipeline.state.built.second_metadata)[0]
        pipeline.remove([victim], side="second")
        assert pipeline.add_documents([(victim, "a brand new claim")], side="second")
        assert victim in pipeline.state.built.second_metadata

    def test_add_records_grows_a_loaded_graph_as_a_fitted_one(self, scenario, tmp_path):
        # The delta appends to the loaded graph (memory-mapped or not) what it
        # appends to the fitted one, and both loads then rank alike.
        from repro.corpus.table import Table

        rows = list(scenario.second.rows)
        reduced = Table(scenario.second.name, scenario.second.columns)
        for row in rows[2:]:
            reduced.add_row(row)
        fitted = TDMatch(TDMatchConfig.fast(), seed=7).fit(scenario.first, reduced)
        path = str(tmp_path / "base.tdm")
        fitted.save(path)
        loads = [TDMatch.load(path, mmap=mmap) for mmap in (True, False)]
        for pipeline in [fitted] + loads:
            pipeline.add_records(rows[:2], side="second")
        for pipeline in loads:
            assert pipeline.graph.labels == fitted.graph.labels
            assert np.array_equal(pipeline.graph.indices, fitted.graph.indices)
        rankings = [pipeline.match_result(k=10).to_dict()["rankings"] for pipeline in loads]
        assert rankings[0] == rankings[1]

    def test_remove_unknown_id_raises(self, text_scenario):
        pipeline, _ = self._reduced_fit(text_scenario)
        with pytest.raises(PipelineError, match="unknown"):
            pipeline.remove(["no-such-id"], side="second")

    def test_incremental_on_mmap_loaded_index(self, text_scenario, tmp_path):
        pipeline, held = self._reduced_fit(text_scenario)
        path = str(tmp_path / "inc.tdm")
        pipeline.save(path)
        loaded = TDMatch.load(path, mmap=True)
        # Fine-tuning must copy the read-only mapped matrices, not crash.
        labels = loaded.add_documents(held, side="second")
        assert labels
        assert loaded.model._input_vectors.flags.writeable

    def test_fine_tune_on_mmap_copies_without_growing_vocab(self, text_scenario, tmp_path):
        # A delta of known tokens only skips the vocabulary-growth
        # concatenate, so the copy-on-first-tune branch alone must make the
        # read-only mapped matrices writable — and leave the file alone.
        pipeline, _ = self._reduced_fit(text_scenario)
        path = tmp_path / "tune.tdm"
        pipeline.save(str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        model = TDMatch.load(str(path), mmap=True).model
        assert not model._input_vectors.flags.writeable
        vocab_size = len(model.vocab)
        known = model.vocab.tokens
        model.fine_tune([known[i : i + 8] for i in range(0, vocab_size, 8)])
        assert len(model.vocab) == vocab_size
        assert model._input_vectors.flags.writeable
        assert model._output_vectors.flags.writeable
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_freeze_distant_pins_unrelated_rows(self, text_scenario):
        pipeline, held = self._reduced_fit(text_scenario)
        model = pipeline.state.model
        touched_before = np.array(model._input_vectors, copy=True)
        vocab_before = len(model.vocab)
        pipeline.add_documents(held, side="second")
        after = model._input_vectors[:vocab_before]
        # Most rows are outside the touched neighbourhood and stay identical.
        unchanged = np.all(after == touched_before, axis=1)
        assert unchanged.sum() > 0.5 * vocab_before

    def test_tfidf_filter_rejects_incremental(self, text_scenario):
        config = TDMatchConfig.fast()
        config.builder.filter_strategy_name = "tfidf"
        pipeline = TDMatch(config, seed=7)
        pipeline.fit(text_scenario.first, text_scenario.second)
        with pytest.raises(PipelineError, match="tfidf"):
            pipeline.add_documents([("x", "words")], side="second")


# ----------------------------------------------------------------------
# The matcher's rows: gathered from the live model on every call.
def _assert_rows_follow_model(pipeline):
    """Ids follow each side's metadata map; row i is the vector of label i,
    or zeros when the label has no vocabulary row."""
    built, model = pipeline.state.built, pipeline.model
    for query_side, candidate_side in (("first", "second"), ("second", "first")):
        matcher = pipeline.matcher(query_side)
        for side, ids, matrix in (
            (query_side, matcher.query_ids, matcher.query_matrix),
            (candidate_side, matcher.candidate_ids, matcher.candidate_matrix),
        ):
            mapping = built.metadata(side)
            assert ids == list(mapping)
            assert matrix.dtype == np.float64
            for row, label in zip(matrix, mapping.values()):
                vector = model.vector(label)
                expected = np.zeros(matrix.shape[1]) if vector is None else vector
                assert np.array_equal(row, expected), (side, label)


class TestMatcherRows:
    def test_rows_follow_metadata_and_vocabulary(self, scenario, tmp_path):
        # A document of stop words only is an isolated metadata node: its
        # two one-node walks stay under min_count, so it has no vocabulary
        # row and must get a zero row, not the last row that id -1 gathers.
        first = TextCorpus([*scenario.first, Document("iso", "the of and")])
        config = TDMatchConfig.fast(word2vec__min_count=3, walks__num_walks=2)
        pipeline = TDMatch(config, seed=5).fit(first, scenario.second)
        assert pipeline.model.vector(pipeline.state.built.first_metadata["iso"]) is None
        _assert_rows_follow_model(pipeline)
        n_candidates = len(pipeline.state.built.second_metadata)
        isolated = pipeline.match(k=n_candidates)["iso"]
        assert len(isolated) == n_candidates
        assert all(score == 0.0 for _, score in isolated.candidates)

        path = str(tmp_path / "rows.tdm")
        pipeline.save(path)
        loaded = TDMatch.load(path, mmap=True)
        _assert_rows_follow_model(loaded)
        rows = list(scenario.second.rows)
        loaded.add_records([("rows-new", dict(rows[0].non_null_items()))], side="second")
        assert "rows-new" in loaded.matcher("first").candidate_ids
        _assert_rows_follow_model(loaded)
        loaded.remove([rows[1].row_id], side="second")
        assert rows[1].row_id not in loaded.matcher("first").candidate_ids
        _assert_rows_follow_model(loaded)


# ----------------------------------------------------------------------
# Structured reports
class TestReports:
    def test_report_is_json_able(self, fitted):
        fitted.match(k=3)
        report = fitted.report()
        parsed = json.loads(json.dumps(report))
        assert "graph_build" in parsed["timings"]
        assert parsed["graph"]["nodes"] == fitted.graph.num_nodes()
        kept = fitted.state.built.filter_stats.kept_fraction
        assert parsed["graph"]["filter_kept_fraction"] == kept
        assert parsed["model"]["vocab_size"] == len(fitted.model.vocab)
        assert parsed["model"]["pairs_per_sec"] == fitted.model.stats.pairs_per_sec > 0
        assert parsed["model"]["mmap"] is False

    def test_unfitted_report_has_no_state_sections(self):
        report = TDMatch(TDMatchConfig.fast()).report()
        assert "graph" not in report
        assert "model" not in report

    def test_match_result_to_dict(self, fitted):
        result = fitted.match_result(k=4)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["k"] == 4
        assert payload["retrieval"]["backend"] == "dense"
        assert len(payload["rankings"]) > 0
        first = next(iter(payload["rankings"].values()))
        assert len(first) <= 4
        assert isinstance(first[0][0], str) and isinstance(first[0][1], float)

    def test_timing_registry_to_dict(self, fitted):
        timings = fitted.report()["timings"]
        assert timings == fitted.timings.as_dict()
        assert timings["graph_build"] >= 0
        assert fitted.config.parallel.shards == 1  # the serial walk engine ran

    def test_report_model_mmap_follows_the_arrays(self, scenario, index_path):
        mapped = TDMatch.load(index_path, mmap=True)
        report = mapped.report()
        assert report["model"]["mmap"] is True
        # Nothing was trained or matched since the load.
        assert report["timings"] == {}
        assert "pairs_per_sec" not in report["model"]
        assert TDMatch.load(index_path, mmap=False).report()["model"]["mmap"] is False
        row = list(scenario.second.rows)[0]
        mapped.add_records([("mmap-new-row", dict(row.non_null_items()))])
        assert mapped.report()["model"]["mmap"] is False
