"""The comparison scripts fail when what they compare differs or a run fails,
so that each can gate a change."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep(accepted):
    return {"0": {"cone": {"accepted": accepted, "status": "no_obstruction",
                           "witnesses": [], "points": []}}}


def test_recall_compare_exits_1_when_a_row_differs(tmp_path):
    recall_sweep = load_script("recall_sweep")
    paths = []
    for name, accepted in (("a", 1), ("b", 1), ("c", 2)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(sweep(accepted)), encoding="utf-8")
    assert recall_sweep.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert recall_sweep.main(["--compare", str(paths[0]), str(paths[2])]) == 1


def test_recall_parent_sweeps_both_trees_and_exits_1_when_a_row_differs(monkeypatch, capsys):
    # --parent exports the revision, runs this script's sweep in its tree
    # and in this checkout with the same seeds, compares the two and
    # removes the exported tree, also when a run fails
    recall_sweep = load_script("recall_sweep")
    scratch, runs, accepted = [], [], {}

    def export_tree(rev, into):
        scratch.append(into)
        (into / "tree").mkdir()
        return into / "tree"

    def run_tree(tree, script, args):
        runs.append((tree, Path(script).name, args[:2]))
        Path(args[3]).write_text(json.dumps(sweep(accepted[tree == recall_sweep.ROOT])),
                                 encoding="utf-8")
        return []

    monkeypatch.setattr(recall_sweep, "export_tree", export_tree)
    monkeypatch.setattr(recall_sweep, "run_tree", run_tree)
    accepted.update({False: 1, True: 1})
    assert recall_sweep.main(["--parent", "HEAD", "--seeds", "0-2"]) == 0
    assert runs == [(scratch[0] / "tree", "recall_sweep.py", ["--seeds", "0-2"]),
                    (recall_sweep.ROOT, "recall_sweep.py", ["--seeds", "0-2"])]
    assert capsys.readouterr().out.endswith("total accepted: 1 -> 1; 0 rows differ\n")
    accepted[True] = 2
    assert recall_sweep.main(["--parent", "HEAD"]) == 1
    assert capsys.readouterr().out.endswith("total accepted: 1 -> 2; 1 rows differ\n")

    def failed_run(tree, script, args):
        raise SystemExit(f"recall_sweep.py: the run in {tree} failed (exit 1)")

    monkeypatch.setattr(recall_sweep, "run_tree", failed_run)
    with pytest.raises(SystemExit, match="failed"):
        recall_sweep.main(["--parent", "HEAD"])
    assert len(scratch) == 3 and not any(path.exists() for path in scratch)


def fake_run(tmp_path, lines, code):
    """A tree whose bench/run.py prints lines and exits with code."""
    text = "\n".join(lines)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        f"import sys\nprint({text!r})\nsys.exit({code})\n", encoding="utf-8")
    return tmp_path


def result_lines(workload):
    result = {"correct": True, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    return [f"workload {workload}, seed 1", "  work per pass: 3 calls", json.dumps(result)]


def test_bench_pairs_stops_on_a_run_without_every_workload(tmp_path):
    bench_pairs = load_script("bench_pairs")
    tree = fake_run(tmp_path, result_lines("nbody-hunt") + ["Traceback ..."], 1)
    with pytest.raises(SystemExit, match="pair 1 seed 1 parent: .*small-corpus, ve-dynamics"):
        bench_pairs.run_bench(tree, "all", 1, 1.0, "pair 1 seed 1 parent")
    out, code = bench_pairs.run_bench(tree, "nbody-hunt", 1, 1.0, "pair 1 seed 1 parent")
    assert code == 1 and out["nbody-hunt"]["work"] == "3 calls"


def test_bench_pairs_exits_1_naming_a_run_that_failed_a_check(monkeypatch, capsys):
    bench_pairs = load_script("bench_pairs")
    monkeypatch.setattr(bench_pairs, "export_tree", lambda rev, into: into)

    def run_bench(tree, workload, seed, seconds, name):
        correct = not (seed == 2 and name.endswith("change"))
        result = {"metrics": {"wall_s": 1.0}, "work": "", "correct": correct}
        return {workload: result}, 0 if correct else 1

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "directions", lambda: {"wall_s": "lower"})
    assert bench_pairs.main(["HEAD", "--pairs", "2"]) == 1
    err = capsys.readouterr().err
    assert "pair 2 seed 2 change (exit 1): failed checks in nbody-hunt" in err
    assert "parent" not in err
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda tree, workload, seed, seconds, name: (
                            {workload: {"metrics": {"wall_s": 1.0}, "work": "",
                                        "correct": True}}, 0))
    assert bench_pairs.main(["HEAD", "--pairs", "2"]) == 0


def test_output_digest_parent_names_each_line_that_differs(monkeypatch, capsys):
    output_digest = load_script("output_digest")
    scratch = []

    def export_tree(rev, into):
        scratch.append(into)
        (into / "tree").mkdir()
        return into / "tree"

    parent = ["a1  analyze x", "b1  newton x start 00", "c1  ve-dynamics #00"]
    monkeypatch.setattr(output_digest, "export_tree", export_tree)
    monkeypatch.setattr(output_digest, "run_tree", lambda tree: parent)
    monkeypatch.setattr(output_digest, "lines", lambda: iter(parent))
    assert output_digest.main(["--parent", "HEAD"]) == 0
    assert capsys.readouterr().out == "0 of 3 lines differ from HEAD\n"
    monkeypatch.setattr(output_digest, "lines", lambda: iter(
        ["a1  analyze x", "b2  newton x start 00", "d1  ve-dynamics #01"]))
    assert output_digest.main(["--parent", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "newton x start 00", "ve-dynamics #01", "ve-dynamics #00",
        "3 of 3 lines differ from HEAD"]

    def failed_run(tree):
        raise SystemExit(f"output_digest.py: the run in {tree} failed (exit 1)")

    monkeypatch.setattr(output_digest, "run_tree", failed_run)
    with pytest.raises(SystemExit, match="failed"):
        output_digest.main(["--parent", "HEAD"])
    # the exported tree is removed after every run, the failed one included
    assert len(scratch) == 3 and not any(path.exists() for path in scratch)


def test_trial_stats_parent_names_each_line_whose_counts_differ(monkeypatch, capsys, tmp_path):
    # --parent runs the script on the revision's files with the same hunt
    # seeds and workload, through output_digest's comparison, and names
    # each line whose counts differ
    trial_stats = load_script("trial_stats")
    monkeypatch.setattr(sys.modules["output_digest"], "export_tree", lambda rev, into: tmp_path)
    parent = ["hunt-seed 2 cone: trials 3  test 1  passed 2",
              "hunt-seed 2 small-corpus total: trials 3  test 1  passed 2"]
    runs = []
    monkeypatch.setattr(trial_stats, "run_tree",
                        lambda tree, script, args: runs.append((tree, args)) or parent)
    monkeypatch.setattr(trial_stats, "lines", lambda seeds, names: iter(parent))
    argv = ["--parent", "HEAD", "--workload", "small-corpus", "--hunt-seeds", "2-3"]
    assert trial_stats.main(argv) == 0
    assert runs == [(tmp_path, ["--hunt-seeds", "2-3", "--workload", "small-corpus"])]
    assert capsys.readouterr().out == "0 of 2 lines differ from HEAD\n"
    moved = [parent[0].replace("test 1  passed 2", "test 2  passed 1"), parent[1]]
    monkeypatch.setattr(trial_stats, "lines", lambda seeds, names: iter(moved))
    assert trial_stats.main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "hunt-seed 2 cone", "1 of 2 lines differ from HEAD"]


def test_trial_stats_counts_each_analysis_trials_by_outcome(capsys):
    # small-corpus at hunt seed 0: one line per analysis, whose outcomes add
    # up to its trials, then the workload's totals; row tests reject some
    # trials, and the wrapped search is unwrapped again afterwards
    from algpot import darboux
    from algpot.calculus import PointCalculus

    originals = (darboux._newton, PointCalculus.darboux_trial, PointCalculus.darboux_system,
                 PointCalculus.row_tests)
    trial_stats = load_script("trial_stats")
    assert trial_stats.main(["--workload", "small-corpus", "--hunt-seeds", "0"]) == 0
    rows = []
    for line in capsys.readouterr().out.splitlines():
        label, _, counts = line.partition(": ")
        words = counts.split()
        rows.append((label, {k: int(v.replace(",", "")) for k, v in zip(words[::2], words[1::2])}))
    assert [label for label, _ in rows] == [f"hunt-seed 0 {p}" for p in (
        "cone", "draw0", "draw1", "draw2", "draw3", "pole", "trap")] + [
        "hunt-seed 0 small-corpus total"]
    for _, counts in rows:
        assert counts["trials"] == sum(counts[o] for o in trial_stats.OUTCOMES)
    *analyses, (_, total) = rows
    assert all(total[k] == sum(c[k] for _, c in analyses) for k in total)
    assert total["test"] > 0 and total["scan"] > 0 and total["passed"] > 0
    assert (darboux._newton, PointCalculus.darboux_trial, PointCalculus.darboux_system,
            PointCalculus.row_tests) == originals


def test_trial_stats_counts_each_halving_of_a_scan(monkeypatch):
    # a scan from the halving k that ends at the halving found counts
    # found - k halvings skipped in the kernel, then the row it returned
    # at (a gradient row below n, else G's) or a trial whose pin rows or
    # Jacobian settle it; a start's own trial counts nothing.  A revision
    # whose darboux_trial decides one point per call counts a row without
    # a test of its own and a refused point as one scan trial each
    from algpot import darboux
    from algpot.calculus import PointCalculus

    class Calculus:
        n = 2
        row_tests = (None, print, None, print)  # rows 1 and 3 have tests

    outs = []
    monkeypatch.setattr(PointCalculus, "darboux_trial", lambda pc, *args: outs.pop(0)(*args))
    monkeypatch.setattr(PointCalculus, "darboux_system", lambda pc, *args: None)

    def newton(pc, calls):
        for args in calls:
            try:
                out = PointCalculus.darboux_trial(pc, *args)
                if isinstance(out, tuple) and out[-1] == "accepted":
                    PointCalculus.darboux_system(pc, None, None)
            except ArithmeticError:
                pass

    def counted(calls, replies):
        outs[:] = replies
        monkeypatch.setattr(darboux, "_newton", newton)
        counter = trial_stats.TrialCounter()
        counter.install()
        try:
            darboux._newton(Calculus(), calls)
        finally:
            counter.restore()
        return {k: v for k, v in counter.counts.items() if v}

    trial_stats = load_script("trial_stats")
    scans = [("xs", "stay", 29, 1.0), ("xs", "step", 0, 1.0), ("xs", "step", 4, 1.0),
             ("xs", "step", 9, 1.0), ("xs", "step", 13, 1.0)]
    assert counted(scans, [lambda *a: (29, ((), ())), lambda *a: (3, 1), lambda *a: (6, 3),
                           lambda *a: (11, ((), ())), lambda *a: (30, None)]) == {
        "scan": 3 + 2 + 2 + 17, "grad": 1, "G": 1, "pin": 1}
    accepted = [lambda *a: (29, "accepted"), lambda *a: (2, "accepted")]
    assert counted(scans[:2], accepted) == {"scan": 2, "passed": 1}

    def refused(*args):
        raise ArithmeticError

    points = [("xs", 1.0)] * 6
    assert counted(points, [lambda *a: ((), ()), lambda *a: 0, lambda *a: 1, lambda *a: 2,
                            lambda *a: 3, refused]) == {"scan": 3, "grad": 1, "G": 1}


def test_output_digest_lists_each_fiber_solve_after_its_output():
    # each fiber solve that an output made has its own line, after that
    # output's line and in call order, and solve_fiber is put back once
    # the listing ends
    output_digest = load_script("output_digest")
    PointCalculus = output_digest.algpot.calculus.PointCalculus
    solve_fiber = PointCalculus.solve_fiber
    labels = [label for label, _ in output_digest.ve_dynamics_lines(0)]
    assert PointCalculus.solve_fiber is solve_fiber
    owner = count = None
    solves = 0
    for label in labels:
        if not label.startswith("fiber "):
            owner, count = label, 0
            continue
        assert label == f"fiber {owner} solve {count:02d}"
        count += 1
        solves += 1
    assert solves


def test_output_digest_lists_each_sigma_probe_after_its_analysis(monkeypatch):
    # each Sigma probe that an analysis made has its own line, after that
    # analysis's start and fiber lines and in call order, and
    # _near_zero_set is put back once the listing ends
    output_digest = load_script("output_digest")
    monkeypatch.setattr(output_digest, "ANALYZE_WORKLOADS", ("small-corpus",))
    PointCalculus = output_digest.algpot.calculus.PointCalculus
    near_zero_set = PointCalculus._near_zero_set
    labels = [label for label, _ in output_digest.analyze_lines(0, {})]
    assert PointCalculus._near_zero_set is near_zero_set
    kinds = {"analyze": 0, "newton": 1, "fiber": 2, "probe": 3}
    owner, last, count = None, 0, 0
    probes = 0
    for label in labels:
        kind, _, rest = label.partition(" ")
        if kind == "analyze":
            owner, last, count = rest, 0, 0
            continue
        assert kinds[kind] >= last
        last = kinds[kind]
        if kind == "probe":
            assert label == f"probe {owner} walk {count:02d}"
            count += 1
            probes += 1
    assert probes
