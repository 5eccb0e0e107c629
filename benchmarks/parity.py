"""Seeded parity probes: what one checkout computes, as comparable JSON.

Run from the root of a checkout::

    PYTHONHASHSEED=0 python benchmarks/parity.py > mine.json
    PYTHONHASHSEED=0 python benchmarks/parity.py --src ../other > theirs.json
    python benchmarks/parity.py --compare mine.json theirs.json

``--src PATH`` imports ``repro`` from another tree (a ``git worktree add``
of an earlier commit, say; ``PATH/src`` when it exists, else ``PATH``);
without it the script imports its own checkout's ``src/``.  A run fits
every probe below and prints one JSON object: per probe the node and edge
counts of the fitted graph, every query's ranking with ``repr`` scores, and
the sha256 of the vocabulary (tokens and counts) and of both embedding
blocks.  ``--compare A B`` prints each probe as identical, or as different
with every differing field named, and exits 1 unless every probe is
identical.

The probes (``imdb_wt`` at tiny size unless named otherwise):

* ``default`` — the ``run`` defaults; ``msp``, ``ssp``, ``ssum``,
  ``random-node``, ``random-edge`` — with that ``--compression`` at ratio
  0.5; ``expansion`` — with the scenario's knowledge base;
  ``neighborhood`` — ``--blocking neighborhood``; ``workers-2`` —
  ``--num-workers 2``;
* ``bucket-numeric`` and ``embedding-merge`` — ``corona_usr`` at small
  size with numeric bucketing, and with the embedding merge at γ = 0.6 over a synthetic
  resource whose vectors are seeded by a term's first two characters plus
  0.6× noise seeded by the whole term (near-synonyms share a prefix);
* ``save`` — the default fit saved (plus the sha256 of the index file),
  loaded with ``mmap`` True and False (both must rank as the fit does),
  then ``add_records`` of two new rows on the memory-mapped load;
* ``incremental-freeze`` / ``incremental-thaw`` — ``imdb_wt`` at small
  size fitted without its first six table rows, saved, loaded
  memory-mapped and given the rows with ``add_records``, with
  ``incremental.freeze_distant`` on and off.

Only API that checkouts since the serving index share is used, and every
draw goes through :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
K = 10


def _import_tree(src: str) -> None:
    """Put the tree's ``src`` (or the tree itself) first on ``sys.path``."""
    path = Path(src).resolve()
    if (path / "src" / "repro").is_dir():
        path = path / "src"
    sys.path.insert(0, str(path))


def _digest(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _record(pipeline, rankings) -> dict:
    """A fitted pipeline's comparable state, with the rankings it gave."""
    import numpy as np

    model = pipeline.model
    output = model._output_vectors
    return {
        "nodes": pipeline.graph.num_nodes(),
        "edges": pipeline.graph.num_edges(),
        "rankings": [
            [ranking.query_id, [[candidate, repr(score)] for candidate, score in ranking.candidates]]
            for ranking in rankings
        ],
        "vocab_sha256": _digest(
            "\n".join(model.vocab.tokens).encode(),
            np.asarray(model.vocab.counts_array(), dtype=np.int64).tobytes(),
        ),
        "input_sha256": _digest(np.ascontiguousarray(model._input_vectors).tobytes()),
        "output_sha256": (
            None if output is None else _digest(np.ascontiguousarray(output).tobytes())
        ),
    }


class _PrefixResource:
    """Synthetic pre-trained vectors: a shared direction per two-character
    prefix plus 0.6× noise per term."""

    DIM = 16

    def vector(self, term: str):
        from repro.utils.rng import derive_rng

        base = derive_rng(SEED, "prefix", term[:2]).standard_normal(self.DIM)
        noise = derive_rng(SEED, "term", term).standard_normal(self.DIM)
        return base + 0.6 * noise


def _run_config(scenario, **overrides):
    """The config ``repro run`` builds at its default flags, plus overrides."""
    from repro.core.config import TDMatchConfig

    settings = dict(
        walks__num_walks=10, walks__walk_length=15, word2vec__vector_size=64, word2vec__epochs=2
    )
    settings.update(overrides)
    factory = (
        TDMatchConfig.for_text_to_data
        if scenario.task == "text-to-data"
        else TDMatchConfig.for_text_tasks
    )
    return factory(**settings)


def _fit(scenario, config):
    from repro.core.pipeline import TDMatch

    pipeline = TDMatch(config, seed=SEED).fit(scenario.first, scenario.second)
    return pipeline, pipeline.match_result(k=K).rankings


def _save_probe(scenario, workdir: str) -> dict:
    from repro.core.pipeline import TDMatch

    pipeline, rankings = _fit(scenario, _run_config(scenario))
    path = os.path.join(workdir, "default.tdmidx")
    pipeline.save(path)
    record = {"index_sha256": _digest(Path(path).read_bytes())}
    for mmap in (True, False):
        loaded = TDMatch.load(path, mmap=mmap)
        record[f"rankings_mmap_{mmap}"] = _record(loaded, loaded.match_result(k=K).rankings)[
            "rankings"
        ]
    rows = list(scenario.second.rows)[:2]
    loaded.add_records(
        [(f"parity-{i}", dict(row.non_null_items())) for i, row in enumerate(rows)],
        side="second",
    )
    record.update(_record(loaded, loaded.match_result(k=K).rankings))
    return record


def _incremental_probe(freeze: bool, workdir: str) -> dict:
    from repro.core.config import TDMatchConfig
    from repro.core.pipeline import TDMatch
    from repro.corpus.table import Table
    from repro.datasets import ScenarioSize, generate_scenario

    scenario = generate_scenario("imdb_wt", size=ScenarioSize.small(), seed=4)
    rows = list(scenario.second.rows)
    base = Table(scenario.second.name, list(scenario.second.columns))
    for row in rows[6:]:
        base.add_record(row.row_id, **row.values)
    config = TDMatchConfig.fast()
    config.incremental.freeze_distant = freeze
    path = os.path.join(workdir, f"incremental-{freeze}.tdmidx")
    TDMatch(config, seed=9).fit(scenario.first, base).save(path)
    loaded = TDMatch.load(path, mmap=True)
    loaded.add_records(rows[:6])
    return _record(loaded, loaded.match_result(k=K).rankings)


def run_probes() -> dict:
    from repro.core.config import CompressionConfig, ExpansionConfig, MergeConfig
    from repro.datasets import ScenarioSize, generate_scenario

    imdb = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=SEED)
    corona = generate_scenario("corona_usr", size=ScenarioSize.small(), seed=SEED)
    configs = {
        "default": (imdb, {}),
        "expansion": (imdb, {"expansion": ExpansionConfig(resource=imdb.kb)}),
        "neighborhood": (imdb, {"retrieval__backend": "blocked"}),
        "workers-2": (imdb, {"parallel__num_workers": 2}),
        "bucket-numeric": (corona, {"merge": MergeConfig(bucket_numeric=True)}),
        "embedding-merge": (
            corona, {"merge": MergeConfig(pretrained=_PrefixResource(), gamma=0.6)}
        ),
    }
    for method in ("msp", "ssp", "ssum", "random-node", "random-edge"):
        configs[method] = (
            imdb, {"compression": CompressionConfig(enabled=True, method=method, ratio=0.5)}
        )
    probes = {}
    for name, (scenario, overrides) in configs.items():
        probes[name] = _record(*_fit(scenario, _run_config(scenario, **overrides)))
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        probes["save"] = _save_probe(imdb, workdir)
        probes["incremental-freeze"] = _incremental_probe(True, workdir)
        probes["incremental-thaw"] = _incremental_probe(False, workdir)
    return probes


def compare(path_a: str, path_b: str) -> int:
    """Print each probe as identical or different; 0 when all are identical."""
    with open(path_a) as handle:
        a = json.load(handle)["probes"]
    with open(path_b) as handle:
        b = json.load(handle)["probes"]
    differences = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            differences += 1
            continue
        fields = [key for key in sorted(set(a[name]) | set(b[name])) if a[name].get(key) != b[name].get(key)]
        if fields:
            print(f"{name}: different ({', '.join(fields)})")
            differences += 1
        else:
            print(f"{name}: identical")
    return 1 if differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="tree to import repro from (default: this checkout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _import_tree(args.src or str(ROOT))
    import repro

    print(json.dumps({"src": os.path.dirname(repro.__file__), "probes": run_probes()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
