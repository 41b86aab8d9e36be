"""Shared pieces of the benchmark: checkout layout, branches, child processes.

The benchmark lives beside the package and imports it from the checkout's
``src`` directory, so it measures the code of the checkout it runs in.
"""

from __future__ import annotations

import hashlib
import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Every (family, eta) branch of the seven families; g4 has two.
BRANCHES = (
    ("g1", None), ("g2", None), ("g3", None), ("g4", 1),
    ("g4", -1), ("g5", None), ("g6", None), ("g7", None),
)
KINDS = ("lc", "canonical", "kn")


def package_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "lieschouten", "__init__.py"))


def child_env() -> dict:
    """Environment for a child interpreter that imports the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def family_args(fid: str, eta) -> list[str]:
    return ["--family", fid] + ([] if eta is None else ["--eta", str(eta)])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
