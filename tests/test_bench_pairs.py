import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_is_recorded_instead_of_aborting(tmp_path):
    # a census run that hit the sampler's StatisticsError used to end the whole comparison
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\nsys.stderr.write('statistics.StatisticsError: no median for empty data\\n')\nsys.exit(1)\n"
    )
    result = _tool().run(tmp_path, "census", 103)
    assert result == {"exit_code": 1, "stderr_tail": "statistics.StatisticsError: no median for empty data\n"}


def test_run_records_the_fewest_host_speed_samples_in_a_batch(tmp_path):
    tool = _tool()
    metrics = {m["name"]: {"value": 1.5} for m in tool.BENCHMARK["end_to_end"]}
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, pathlib\n"
        "runs = pathlib.Path(__file__).parent / 'runs'\n"
        "runs.mkdir()\n"
        "times = {'wall_s': [[0.1]] * 3, 'kernel_wall_s': [[0.01] * 118, [0.01] * 5, [0.01] * 60]}\n"
        "(runs / 'census.times.json').write_text(json.dumps(times))\n"
        f"print(json.dumps({{'correct': True, 'failed': 2, 'attempted': 9, 'metrics': {metrics!r}}}))\n"
    )
    result = tool.run(tmp_path, "census", 7)
    assert result["min_batch_samples"] == 5
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 2, 9)
    assert all(result[m["name"]] == 1.5 for m in tool.BENCHMARK["end_to_end"])


def test_pairs_with_a_failed_side_count_nowhere():
    tool = _tool()

    def passed(value, samples=40):
        return {"correct": True, "failed": 0, "attempted": 5, "min_batch_samples": samples,
                **{m["name"]: value for m in tool.BENCHMARK["end_to_end"]}}

    failed = {"exit_code": 1, "stderr_tail": ""}
    entry = tool.compare({"base": [passed(2.0), passed(2.0, 7), failed], "head": [passed(1.0, 3), failed, passed(1.0)]})
    assert entry["base"] == entry["head"] == {"correct": True, "failed": 0, "attempted": 10}
    assert entry["min_batch_samples"] == {"base": {"min": 7, "runs": [40, 7]}, "head": {"min": 3, "runs": [3, 40]}}
    for metric in tool.BENCHMARK["end_to_end"]:
        summary = entry[metric["name"]]
        assert summary["pairs"] == 1
        assert summary["head_wins"] == (metric["better"] == "lower")
        assert summary["base"]["runs"] == [2.0, 2.0] and summary["head"]["runs"] == [1.0, 1.0]
