"""Smoke test of ``tools/digest_matrix.py``, the byte-identity check for
refactors."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from fewshot_ibp import layers as L

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


def load_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location("digest_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_affine_kind_takes_the_faces_rule_in_some_setting():
    # an affine layer after a relu in the prefix takes a box without a center
    tool = load_tool()
    after_relu = set()
    for *_, (layers, split_index, _) in tool.SETTINGS.values():
        kinds = [layer["kind"] for layer in layers[:split_index]]
        if "relu" in kinds:
            after_relu.update(kinds[kinds.index("relu") + 1:])
    assert {"fully_connected", "conv2d", "batchnorm"} <= after_relu


def test_some_setting_pools_a_box_without_a_center():
    # a max pool keeps a centered box centered, and a relu right before a
    # pool runs after it: only a pool that runs after some relu takes the
    # faces rule's pool
    tool = load_tool()
    pooled_after_relu = []
    for name, (*_, (layers, split_index, _)) in tool.SETTINGS.items():
        prefix = [SimpleNamespace(kind=layer["kind"]) for layer in layers[:split_index]]
        run = [layer.kind for _, layer in L.execution_order(prefix)]
        if "relu" in run and "maxpool2d" in run[run.index("relu") + 1:]:
            pooled_after_relu.append(name)
    assert pooled_after_relu == ["maml2-conv-two-block"]


# two saved --values listings: run a holds, b's digest and box_width move,
# c's test_accuracy moves, the sample_task check moves, d is new
SAVED = """\
a 11 test_accuracy=0.9 test_ci95=0.01 box_width=0.5
b 22 test_accuracy=0.8 test_ci95=0.02 box_width=0.25
c 33 test_accuracy=0.7 test_ci95=0.03 box_width=0.125
sample_task 44
listing 99
"""
CURRENT = """\
a 11 test_accuracy=0.9 test_ci95=0.01 box_width=0.5
b 2f test_accuracy=0.8 test_ci95=0.02 box_width=0.2500000000000001
c 3f test_accuracy=0.6 test_ci95=0.03 box_width=0.125
d 55 test_accuracy=0.5 test_ci95=0.04 box_width=1.0
sample_task 4f
listing 98
"""


def test_against_reports_each_moved_line_and_moved_results():
    tool = load_tool()
    saved, current = tool.parse_listing(SAVED), tool.parse_listing(CURRENT)
    assert saved["b"] == ("22", {"test_accuracy": "0.8", "test_ci95": "0.02", "box_width": "0.25"})
    assert saved["sample_task"] == ("44", {})
    assert "listing" not in saved
    report, results_moved = tool.compare(saved, current)
    assert report == [
        "moved b box_width 0.25 -> 0.2500000000000001",
        "moved c test_accuracy 0.7 -> 0.6",
        "absent d: not in the saved listing",
        "moved sample_task",
        "3 of 5 lines moved; test_accuracy or test_ci95 moved",
    ]
    assert results_moved
    b_only = {name: line for name, line in current.items() if name in ("a", "b")}
    report, results_moved = tool.compare(saved, b_only)
    assert report[-1] == "1 of 2 lines moved; test_accuracy and test_ci95 held"
    assert not results_moved


def against(saved_text, tmp_path):
    path = tmp_path / "saved.txt"
    path.write_text(saved_text)
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--only", "protonet-fc-ibpi-on", "--against", str(path)],
        capture_output=True, text=True, timeout=300,
    )


def test_against_exit_status(tmp_path):
    line = digest_listing("protonet-fc-ibpi-on", flags=("--values",)).splitlines()[0]
    name, digest, acc, ci, width = line.split()
    out = against(line + "\n", tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "0 of 1 lines moved; test_accuracy and test_ci95 held"
    # a moved box width alone passes, a moved test_ci95 fails
    out = against(f"{name} {'0' * 64} {acc} {ci} box_width=0.5\n", tmp_path)
    assert out.returncode == 0
    assert f"moved {name} box_width 0.5 -> {width.partition('=')[2]}" in out.stdout
    out = against(f"{name} {'0' * 64} {acc} test_ci95=0.5 {width}\n", tmp_path)
    assert out.returncode == 1
    assert out.stdout.splitlines()[-1] == "1 of 1 lines moved; test_accuracy or test_ci95 moved"
    # a listing saved without --values cannot show a moved result
    out = against(f"{name} {digest}\n", tmp_path)
    assert out.returncode == 2 and "is not a --values listing" in out.stderr
    out = against(f"{name}\n", tmp_path)
    assert out.returncode == 2 and f"not a listing line: '{name}'" in out.stderr
