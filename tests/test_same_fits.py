"""tools/same_fits.py on two of its cheapest fits, so that the ledger cannot rot unseen."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_fits.py"
_spec = importlib.util.spec_from_file_location("same_fits", TOOL)
same_fits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_fits)

CHEAP = ["crit5/0", "pertask_small/[0.01,100]"]
KEYS = {"outcome", "iterations", "objective_evals", "converged", "events", "w_iterations",
        "final_objective", "direct_objective", "digests"}


def test_two_runs_record_the_same_fits():
    first, second = same_fits.run(CHEAP), same_fits.run(CHEAP)
    assert list(first) == CHEAP
    for name in CHEAP:
        entry = first[name]
        assert set(entry) == KEYS and entry["outcome"] == "ok"
        assert set(entry["digests"]) == {"W", "sigma1", "sigma2", "trace"}
        # the objective recomputed from the fit's own arrays agrees at these moderate boxes
        gap = abs(entry["direct_objective"] - entry["final_objective"])
        assert gap <= 1e-10 * abs(entry["final_objective"])
        assert entry == second[name]
    assert same_fits.differences(first, second) == []


def test_compare_names_what_moved():
    old = same_fits.run(CHEAP[:1])
    new = {name: dict(entry) for name, entry in old.items()}
    entry = new["crit5/0"]
    entry["objective_evals"] += 1
    entry["digests"] = dict(entry["digests"], W="0" * 64)
    new["extra"] = {"outcome": "ok"}
    assert same_fits.differences(old, new) == [
        f"crit5/0: objective_evals {entry['objective_evals'] - 1} -> {entry['objective_evals']}; "
        "digests differ: W",
        "extra: only in new",
    ]


def test_compare_reads_only_the_keys_both_entries_hold():
    old = {"a": {"outcome": "ok", "iterations": 3, "digests": {"W": "1"}},
           "b": {"outcome": "ok", "iterations": 4, "digests": {"W": "2"}}}
    new = {"a": {"outcome": "ok", "iterations": 3, "direct_objective": -1.0,
                 "digests": {"W": "1", "trace": "9"}},
           "b": {"outcome": "ok", "iterations": 5, "direct_objective": -2.0,
                 "digests": {"W": "3"}}}
    assert same_fits.differences(old, new) == ["b: iterations 4 -> 5; digests differ: W"]
    assert same_fits.one_sided_keys(old, new) == [
        "keys only in new: digests.trace, direct_objective"
    ]
    assert same_fits.one_sided_keys(new, old) == [
        "keys only in old: digests.trace, direct_objective"
    ]
    assert same_fits.differences(old, {"a": new["a"]}) == ["b: only in old"]
