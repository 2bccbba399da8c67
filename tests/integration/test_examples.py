"""Smoke tests: every example script runs to completion.

Examples are part of the public surface; they must keep working. Each is
imported as a module and its ``main()`` executed with output captured.
"""

import importlib.util
import os
import re
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

EXAMPLES = sorted(
    name[:-len(".py")] for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py")
)


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    output = capsys.readouterr().out
    assert len(output) > 100  # produced a real report


def test_quickstart_mentions_placement_table(capsys):
    load_example("quickstart").main()
    output = capsys.readouterr().out
    assert "placement table" in output
    assert "playback" in output


def test_movie_production_shows_figure4_structure(capsys):
    load_example("movie_production").main()
    output = capsys.readouterr().out
    assert "video3 = video-edit(videoc1, videoF, videoc2)" in output
    assert "audio2" in output


def test_multilingual_query_selects_french(capsys):
    load_example("multilingual_query").main()
    output = capsys.readouterr().out
    assert "feature-audio-fr" in output
    assert "fidelity" in output


def test_animation_pipeline_shows_out_of_order(capsys):
    load_example("animation_pipeline").main()
    output = capsys.readouterr().out
    assert "storage pos" in output
    assert "decoded 16 frames" in output


def test_observability_tour_reports_health_and_trace(capsys):
    load_example("observability_tour").main()
    output = capsys.readouterr().out
    assert "status: critical" in output
    assert "slo startup-latency" in output
    assert "pipeline stage profile" in output
    assert "trace_event JSON" in output
    assert "reproduces trace and event log: True" in output


def readme_python_blocks():
    path = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")
    with open(path, encoding="utf-8") as readme:
        return re.findall(r"```python\n(.*?)```", readme.read(), re.S)


def test_readme_python_blocks_run_in_order(capsys):
    """README's quickstart, fleet, telemetry and facade blocks run as
    written, in order, sharing the quickstart's ``interpretation``. The
    query block names catalog objects it never builds, so it stays out."""
    blocks = readme_python_blocks()
    assert len(blocks) == 5
    namespace: dict = {}
    for number in (1, 2, 3, 5):
        exec(compile(blocks[number - 1], f"README.md python block {number}",
                     "exec"), namespace)
    assert "alert timeline" in capsys.readouterr().out
