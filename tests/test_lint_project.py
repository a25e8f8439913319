"""Determinism and tag-math defects that cross functions or files.

Test names keep the rule codes of the whole-program checks they were
written for (CACHE001, TAG002, DET006). Each case now asserts the
per-file rule that flags its fixture: CACHE001 and TAG002 are module
rules, environment and wall-clock reads are DET002's at the read site,
and unordered iteration is DET003's. HACKING.md, "Static analysis",
names the runtime test behind every check no per-file rule makes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.lint import Finding, lint_paths, lint_source
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent

FilePair = Tuple[str, str]


def analyze(files: Sequence[FilePair]) -> List[Finding]:
    """Lint in-memory fixtures, one module at a time."""
    findings: List[Finding] = []
    for path, source in files:
        findings.extend(lint_source(source, path=path))
    return findings


def codes(findings: Sequence[Finding]) -> List[str]:
    return [f.rule for f in findings]


def lines_of(findings: Sequence[Finding], code: str) -> List[int]:
    return [f.line for f in findings if f.rule == code]


# ---------------------------------------------------------------------------
# CACHE001 — experiment results must be a function of (params, seed)
# ---------------------------------------------------------------------------

_REGISTRY_SRC = 'REGISTRY = {"demo": "repro.experiments.demo:run_demo"}\n'


def _experiment(body: str) -> List[FilePair]:
    return [
        ("src/repro/experiments/__init__.py", _REGISTRY_SRC),
        ("src/repro/experiments/demo.py", body),
    ]


def test_cache001_catches_env_read_in_entry():
    # Environment reads moved from CACHE001 into DET002's banned set.
    findings = analyze(
        _experiment(
            "import os\n\ndef run_demo(seed=0):\n    return os.environ.get('HOME')\n"
        )
    )
    assert codes(findings) == ["DET002"]
    assert "os.environ" in findings[0].message


def test_cache001_catches_impurity_via_transitive_helper():
    # Per-file scope covers every function of an experiment module, so a
    # helper's file read is flagged where it happens; a helper's clock
    # read is DET002's.
    findings = analyze(
        _experiment(
            "import time\n"
            "from pathlib import Path\n"
            "\n"
            "def _helper():\n"
            "    return time.perf_counter(), Path('knob.txt').read_text()\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    return _helper()\n"
        )
    )
    assert sorted(codes(findings)) == ["CACHE001", "DET002"]
    assert lines_of(findings, "CACHE001") == lines_of(findings, "DET002") == [5]


def test_cache001_catches_module_level_mutable_state():
    findings = analyze(
        _experiment(
            "_CACHE = {}\n"
            "_RUNS = []\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    _CACHE[seed] = 1\n"
            "    _RUNS.append(seed)\n"
            "    runs = []\n"
            "    runs.append(seed)\n"
            "    return _CACHE\n"
        )
    )
    assert codes(findings) == ["CACHE001", "CACHE001"]
    assert lines_of(findings, "CACHE001") == [5, 6]
    assert "module-level `_CACHE`" in findings[0].message


def test_cache001_passes_pure_entry():
    findings = analyze(
        _experiment(
            "def _shape(seed):\n"
            "    return seed * 3\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    with open('out.txt', 'w') as fh:\n"
            "        fh.write(str(seed))\n"
            "    return _shape(seed)\n"
        )
    )
    assert findings == []


def test_cache001_ignores_impurity_outside_entry_reachability():
    # The scope is now the experiment modules rather than what the
    # registry reaches: a trace reader elsewhere takes its path as a
    # parameter, which is part of the cache key.
    findings = analyze(
        [
            (
                "src/repro/traffic/reader.py",
                "from pathlib import Path\n"
                "\n"
                "def read_trace(path):\n"
                "    return Path(path).read_text()\n",
            )
        ]
    )
    assert findings == []


# ---------------------------------------------------------------------------
# TAG002 — tag-math parity (eq. 4 / eq. 37 only in repro.core.tagmath)
# ---------------------------------------------------------------------------


def _one_module(source: str, path: str = "src/repro/core/sched.py") -> List[FilePair]:
    return [(path, source)]


def test_tag002_catches_inline_eq4():
    findings = analyze(
        _one_module(
            "def enqueue(v, last_finish, length, rate):\n"
            "    return max(v, last_finish) + length / rate\n"
        )
    )
    assert codes(findings) == ["TAG002"]
    assert "eq. 4" in findings[0].message


def test_tag002_catches_inline_eq37():
    findings = analyze(
        _one_module(
            "def expected_arrival(arrival, prev_eat, prev_service):\n"
            "    return max(arrival, prev_eat + prev_service)\n"
        )
    )
    assert codes(findings) == ["TAG002"]
    assert "eq. 37" in findings[0].message


def test_tag002_exempts_the_tagmath_kernel_itself():
    findings = analyze(
        _one_module(
            "def start_finish(v, last_finish, length, weight, rate=None):\n"
            "    return max(v, last_finish) + length / weight\n"
            "\n"
            "def eat_step(arrival, prev_eat, prev_service):\n"
            "    return max(arrival, prev_eat + prev_service)\n",
            path="src/repro/core/tagmath.py",
        )
    )
    assert findings == []


def test_tag002_passes_disciplined_call():
    findings = analyze(
        _one_module(
            "from repro.core.tagmath import start_finish\n"
            "\n"
            "def enqueue(v, last_finish, length, rate):\n"
            "    return start_finish(v, last_finish, length, rate, None)\n"
        )
    )
    assert findings == []


def test_tag002_passes_unrelated_max_plus_division():
    findings = analyze(
        _one_module(
            "def f(xs, n):\n"
            "    top = max(xs[0], xs[1])\n"
            "    mean = sum(xs) / n\n"
            "    return top, mean, max(n, xs[0] + xs[1])\n"
        )
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Wall clock and iteration order on their way to the schedule
# ---------------------------------------------------------------------------


def test_det006_catches_wallclock_through_helper_into_call_at():
    # DET002 flags the read itself, so the helper that launders it
    # into sim.call_at no longer matters.
    findings = analyze(
        _one_module(
            "import time\n"
            "\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "\n"
            "def schedule(sim, handler):\n"
            "    t = _stamp()\n"
            "    sim.call_at(t, handler)\n",
            path="src/repro/simulation/sched.py",
        )
    )
    assert codes(findings) == ["DET002"]
    assert findings[0].line == 4


def test_det006_sorted_launders_iteration_order():
    unordered = analyze(
        _one_module(
            "def arm(sim, flows, handler):\n"
            "    for f in set(flows):\n"
            "        sim.call_at(f, handler)\n",
            path="src/repro/simulation/sched.py",
        )
    )
    assert codes(unordered) == ["DET003"]
    ordered = analyze(
        _one_module(
            "def arm(sim, flows, handler):\n"
            "    for f in sorted(set(flows)):\n"
            "        sim.call_at(f, handler)\n",
            path="src/repro/simulation/sched.py",
        )
    )
    assert ordered == []


def test_det006_passes_simulation_derived_time():
    findings = analyze(
        _one_module(
            "def _next(now, step):\n"
            "    return now + step\n"
            "\n"
            "def schedule(sim, handler):\n"
            "    sim.call_at(_next(sim.now, 0.5), handler)\n",
            path="src/repro/simulation/sched.py",
        )
    )
    assert findings == []


def test_det006_exempts_benchmark_wallclock():
    findings = analyze(
        _one_module(
            "import time\n"
            "\n"
            "def arm(sim, handler):\n"
            "    sim.call_at(time.time(), handler)\n",
            path="benchmarks/bench_sched.py",
        )
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Report formats and the full-tree budget
# ---------------------------------------------------------------------------


def test_syntax_findings_carry_column_in_all_formats(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")

    assert lint_main([str(bad)]) == 1
    text = capsys.readouterr().out
    first = text.splitlines()[0]
    # path:line:col: SYNTAX ... — the col field is a real offset.
    col = int(first.split(":")[2])
    assert col > 0 and "SYNTAX" in first

    assert lint_main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "SYNTAX"
    assert payload["findings"][0]["col"] == col


def test_full_analysis_meets_time_budget():
    t0 = time.perf_counter()
    lint_paths([str(REPO_ROOT / "src")])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"full lint of src/ took {elapsed:.2f}s (budget 10s)"
