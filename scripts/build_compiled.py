#!/usr/bin/env python
"""Opt-in compiled build of the hot pure-Python tag arithmetic.

Compiles ``repro.core.tagmath`` to a C extension with mypyc, placing
the resulting shared object next to its source file so the import
system prefers it transparently (`foo.cpython-*.so` shadows `foo.py` on
import). Nothing in the repo *requires* this: the pure-Python module is
the reference implementation, every test passes without a compiler,
and the compiled form is gated by the same trace-equivalence suite.

Usage::

    python scripts/build_compiled.py            # build (if toolchain present)
    python scripts/build_compiled.py --clean    # remove built artifacts
    python scripts/build_compiled.py --check    # report what would be used

The script *always exits 0 when the toolchain is missing* — "no
compiler" is a supported configuration, not an error — so CI can run it
best-effort. A real compile failure (toolchain present, build broke)
exits nonzero.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules compiled, by design, in dependency-free isolation: tagmath
#: is a leaf (it imports nothing from repro), so mypyc never needs to
#: follow imports into the uncompiled package.
TARGETS = [
    SRC / "repro" / "core" / "tagmath.py",
]


def built_artifacts() -> list[Path]:
    """Existing compiled artifacts for the target modules."""
    found: list[Path] = []
    for target in TARGETS:
        found.extend(target.parent.glob(target.stem + ".*.so"))
        found.extend(target.parent.glob(target.stem + ".*.pyd"))
    return found


def clean() -> int:
    removed = 0
    for artifact in built_artifacts():
        artifact.unlink()
        print(f"removed {artifact.relative_to(ROOT)}")
        removed += 1
    for target in TARGETS:
        build_dir = target.parent / "build"
        if build_dir.is_dir():
            shutil.rmtree(build_dir)
    if not removed:
        print("nothing to clean")
    return 0


def check() -> int:
    artifacts = built_artifacts()
    for target in TARGETS:
        module = ".".join(target.relative_to(SRC).with_suffix("").parts)
        compiled = [a for a in artifacts if a.stem.startswith(target.stem)]
        form = compiled[0].name if compiled else "pure Python"
        print(f"{module}: {form}")
    return 0


def build() -> int:
    try:
        from mypyc.build import mypycify  # noqa: F401
    except ImportError:
        print(
            "mypyc not available (pip install mypy); skipping compiled "
            "build — the pure-Python modules remain in use."
        )
        return 0
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        print("no C compiler on PATH; skipping compiled build.")
        return 0
    # Run setup.py-style builds in each target's own directory so the
    # .so lands next to the .py it shadows.
    for target in TARGETS:
        script = (
            "from mypyc.build import mypycify\n"
            "from setuptools import setup\n"
            f"setup(name={target.stem!r}, ext_modules=mypycify([{target.name!r}]),\n"
            "      script_args=['build_ext', '--inplace'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=target.parent,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"FAILED compiling {target.relative_to(ROOT)}", file=sys.stderr)
            return 1
        print(f"compiled {target.relative_to(ROOT)}")
    print(
        "done. Run the trace-equivalence suite to validate the build:\n"
        "  PYTHONPATH=src python -m pytest -q tests/test_trace_equivalence.py"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--clean", action="store_true", help="remove built artifacts")
    group.add_argument("--check", action="store_true", help="report active forms")
    args = parser.parse_args()
    if args.clean:
        return clean()
    if args.check:
        return check()
    return build()


if __name__ == "__main__":
    raise SystemExit(main())
