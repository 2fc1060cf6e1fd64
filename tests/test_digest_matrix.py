"""Smoke test of ``tools/digest_matrix.py``, the byte-identity check for
refactors."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "digest_matrix.py"


def digest_listing(*runs, flags=()):
    argv = [sys.executable, str(SCRIPT), *flags] + [a for run in runs for a in ("--only", run)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def test_one_run_digest_is_stable_and_listed():
    first = digest_listing("maml1-fc-ibpi-on")
    lines = first.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"maml1-fc-ibpi-on [0-9a-f]{64}", lines[0])
    listing = hashlib.sha256((lines[0] + "\n").encode("utf-8")).hexdigest()
    assert lines[1] == f"listing {listing}"
    assert digest_listing("maml1-fc-ibpi-on") == first


def test_values_follow_the_digest_and_keep_the_listing():
    plain = digest_listing("protonet-fc-ibpi-on").splitlines()
    lines = digest_listing("protonet-fc-ibpi-on", flags=("--values",)).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(plain[0] + " ")
    assert re.fullmatch(
        r"\S+ \S+ test_accuracy=0\.\d+ test_ci95=0\.\d+ box_width=\d+\.\d+", lines[0]
    )
    assert lines[1] == plain[1]  # the listing hash covers names and digests only


def test_pattern_selects_every_run_it_matches():
    lines = digest_listing("protonet-fc-ibpi-o*").splitlines()
    assert [line.split()[0] for line in lines] == [
        "protonet-fc-ibpi-on", "protonet-fc-ibpi-off", "listing"
    ]
    assert lines[:2] == digest_listing("protonet-fc-ibpi-on", "protonet-fc-ibpi-off").splitlines()[:2]


def rejected(name):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--only", name],
        capture_output=True, text=True, timeout=300,
    )
    return out.returncode == 2 and "no run named" in out.stderr


def test_unknown_run_rejected():
    assert rejected("no-such-run")


def test_pattern_matching_nothing_rejected():
    assert rejected("maml3-*")


def test_sampler_digest_is_stable_and_listed():
    first = digest_listing("sample_task")
    lines = first.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"sample_task [0-9a-f]{64}", lines[0])
    listing = hashlib.sha256((lines[0] + "\n").encode("utf-8")).hexdigest()
    assert lines[1] == f"listing {listing}"
    assert digest_listing("sample_task", flags=("--values",)) == first


def test_evaluate_digest_is_stable_and_listed():
    # 600 tasks: several adaptation chunks on both networks
    first = digest_listing("evaluate")
    lines = first.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"evaluate [0-9a-f]{64}", lines[0])
    listing = hashlib.sha256((lines[0] + "\n").encode("utf-8")).hexdigest()
    assert lines[1] == f"listing {listing}"
    assert digest_listing("evaluate", flags=("--values",)) == first


def test_sampler_line_follows_the_runs():
    lines = digest_listing("evaluate", "protonet-fc-ibpi-on", "sample_task").splitlines()
    names = [line.split()[0] for line in lines]
    assert names == ["protonet-fc-ibpi-on", "sample_task", "evaluate", "listing"]
    listing = hashlib.sha256("".join(line + "\n" for line in lines[:3]).encode("utf-8"))
    assert lines[3] == f"listing {listing.hexdigest()}"
