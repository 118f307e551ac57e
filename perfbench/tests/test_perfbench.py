"""Tests of the benchmark itself.

They check that the seeded inputs are deterministic and cover every op
class, that the timings keep each cycle position's fastest repeats, that
every workload is correct at HEAD (``ok_frac == 1``), that the
per-layer counts repeat exactly between two runs of one seed in fresh
processes with different hash seeds, and that traced self times plus
unattributed time add up to the op's wall time.  Runs are shortened to
the one cycle every run completes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, design_gen, edit_sdf, serve_booleans

SEED = 3
SHORT_S = 0.05
RUN = Path(__file__).resolve().parent.parent / "run.py"
WORKLOADS = {
    "edit-sdf": edit_sdf,
    "design-gen": design_gen,
    "serve-booleans": serve_booleans,
}
#: Per-layer metrics that are counts (or ratios of counts) over the first
#: cycle, so they must not move between runs of the same seed.
COUNTS = (
    "lexing.dfa_states",
    "core.expansions_per_op",
    "core.closure_items_per_op",
    "core.states_removed_per_op",
    "core.table_fraction",
    "lr.action_cache_hit_frac",
    "runtime.reparse_resumed_frac",
    "runtime.reparse_reused_frac",
    "runtime.forks_per_op",
    "runtime.shifts_per_op",
    "api.render_trees_per_op",
    "service.cache_hit_frac",
)


def test_edit_sessions_are_seeded_and_cover_every_class():
    script = edit_sdf.generate(SEED)
    assert script == edit_sdf.generate(SEED)
    assert script != edit_sdf.generate(SEED + 1)
    assert {(doc, kind) for doc, kind, _label, _key in script} == {
        (doc, kind) for doc in edit_sdf.EPISODES for kind in edit_sdf.MIX
    }
    labels = [label for _doc, _kind, label, _key in script]
    assert labels.count("repair") * 4 == len(labels)
    # Every episode repairs what it broke, so a cycle can be replayed.
    texts = edit_sdf.load_documents()
    replayed = dict(texts)
    for doc, _kind, _label, key in script:
        replayed[doc] = edit_sdf.apply(replayed[doc], key)
    assert replayed == texts


def test_designs_are_seeded_and_cover_every_class():
    first, again = design_gen.Design(SEED), design_gen.Design(SEED)
    assert (first.grammar_text, first.sentences, first.script) == (
        again.grammar_text, again.sentences, again.script
    )
    assert first.grammar_text != design_gen.Design(SEED + 1).grammar_text
    assert len(first.grammar_text.splitlines()) == 1997
    assert {(label, action) for label, action, _i in first.script} == {
        (label, action) for label in ("stmt", "block") for action in ("add", "delete")
    }
    verdicts = set(first.expected(set())) | set(first.expected(set(range(len(first.pool)))))
    assert verdicts == {True, False}


def test_service_streams_are_seeded_and_cover_every_class():
    stream = serve_booleans.generate(SEED)
    assert stream == serve_booleans.generate(SEED)
    assert stream != serve_booleans.generate(SEED + 1)
    assert {label for _request, label, _ops in stream} == set(serve_booleans.EPOCH)
    # Each session parses each pool sentence once on a fresh grammar version.
    fresh = sorted(ops for _request, label, ops in stream if label == "parse-miss")
    assert fresh == sorted(serve_booleans.PARSE_OPERATORS * serve_booleans.SESSIONS)


def test_timed_ops_keep_each_positions_fastest_repeats():
    # 3 positions, 25 complete cycles and a partial one; position 1 is
    # dearest, and cycle 7 runs fast.
    latencies = [
        (2.0 if position == 1 else 1.0) * (0.5 if cycle == 7 else 1.0) + cycle * 1e-3
        for cycle in range(25) for position in range(3)
    ] + [0.1, 0.1]
    kept = common.fast_repeats(latencies, 3)
    assert len(kept) == 3 * 2  # a tenth of 25, rounded down
    assert sorted(i % 3 for i in kept) == [0, 0, 1, 1, 2, 2]
    assert {i // 3 for i in kept} == {0, 7}
    # At least one repeat each; with no complete cycle, every op.
    assert common.fast_repeats(latencies[:9], 3) == [0, 1, 2]
    assert common.fast_repeats(latencies[:2], 3) == [0, 1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_is_correct_at_head(name):
    result, facts = WORKLOADS[name].run(SEED, SHORT_S, False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(common.END_TO_END)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    """Two traced runs of one seed through ``run.py``, each in a fresh
    process with its own hash seed: ``[(result, info), ...]``."""
    runs = []
    for hash_seed in ("1", "2"):
        completed = subprocess.run(
            [sys.executable, str(RUN), "--workload", request.param, "--seed", str(SEED),
             "--seconds", str(SHORT_S), "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=True, cwd=str(RUN.parent.parent),
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        info, result = (json.loads(line) for line in completed.stdout.strip().splitlines()[-2:])
        assert info["info"]["PYTHONHASHSEED"] == hash_seed
        runs.append((result, info["info"]))
    return runs


def test_traced_runs_report_every_layer_metric(traced_twice):
    for result, _facts in traced_twice:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(common.PER_LAYER)


def test_layer_counts_repeat_exactly(traced_twice):
    (first, _), (second, _) = traced_twice
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_self_times_and_unattributed_add_up_to_wall_time(traced_twice):
    for _result, facts in traced_twice:
        accounted = sum(facts["layer_self_ms"].values())
        assert accounted == pytest.approx(facts["op_wall_ms"], rel=0.02)
