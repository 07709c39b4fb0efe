"""ExperimentRunner behaviour tests."""

from repro.experiments import ExperimentRunner


def test_names_subset_restricts_suite():
    runner = ExperimentRunner(scale=0.03, widths=(4,),
                              names=("eqntott", "li"))
    assert runner.names == ("eqntott", "li")
    sweep = runner.sweep(["A"])
    results = sweep[("A", 4)]
    assert [r.trace_name for r in results] == ["eqntott", "li"]


def test_predictor_passes_are_cached():
    runner = ExperimentRunner(scale=0.03, widths=(4,))
    first = runner.inputs("eqntott").branch()
    second = runner.inputs("eqntott").branch()
    assert first is second
    assert runner.inputs("eqntott").loads() is \
        runner.inputs("eqntott").loads()


def test_results_use_requested_subset():
    runner = ExperimentRunner(scale=0.03, widths=(4,))
    subset = runner.results("A", 4, names=["go"])
    assert len(subset) == 1
    assert subset[0].trace_name == "go"


def test_sweep_covers_all_cells():
    runner = ExperimentRunner(scale=0.03, widths=(4, 8),
                              names=("eqntott",))
    sweep = runner.sweep(["A", "C"])
    assert set(sweep) == {("A", 4), ("A", 8), ("C", 4), ("C", 8)}
