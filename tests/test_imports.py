"""scipy, concurrent.futures and logging are loaded only by the code that
calls them, and scipy's modules one at a time.

`audio.resample` (on a rate change) and `mfcc` import scipy when first
called; `audio.helper_pool` imports concurrent.futures (which imports
logging) for the block helpers, the threads that also share the rows of
`extract --jobs N`.  Importing the package, or running a command that calls
none of them, loads no module of the three packages, so those commands
start without their import time.  `estimate_f0` sizes its FFTs without
scipy, so every kind but `mfcc` extracts at the target rate without
loading scipy.  Each case runs in a fresh
interpreter, because this test process has loaded them long since.

Two threads running rows of `extract --jobs N` that import two scipy
modules at once can see a module of scipy's half-initialised and fail.
So every import of scipy in the package is made holding the one lock
`audio.FIRST_USE`, which an AST scan of the source checks.
"""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import natural_buf, tone, write_manifest
from spoofsense.audio import write_wav
from spoofsense.cli import main
from spoofsense.spectral import FeatureMatrix
from spoofsense.store import write_feature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "spoofsense")
TDCF_CONF = os.path.join(ROOT, "configs", "tdcf_example.conf")
LAZY = ("scipy", "concurrent", "logging")


def probe(argv=None, module="spoofsense.cli"):
    """Import `module` and run cli.main(argv) in a fresh interpreter.

    Returns (exit code or None, sorted names of the modules loaded from the
    LAZY packages).
    """
    script = "import json, sys\nimport %s\nrc = None\n" % module
    if argv is not None:
        script += "from spoofsense.cli import main\nrc = main(%r)\n" % [str(a) for a in argv]
    script += ("print(json.dumps([rc, sorted(m for m in sys.modules"
               " if m.partition('.')[0] in %r)]))\n" % (LAZY,))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SPOOFSENSE_CONFIG", None)
    p = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return tuple(json.loads(p.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Feature files, a model, a score file, trials and embeddings, none made by DSP."""
    d = tmp_path_factory.mktemp("noscipy")
    rows = [("b%d" % i, "s%d" % i, "bonafide", "-", "-", "x.wav") for i in range(3)]
    rows += [("f%d" % i, "s%d" % i, "spoof", "-", "A0%d" % (7 + i), "x.wav") for i in range(3)]
    write_manifest(d / "cm.tsv", rows)
    for i, r in enumerate(rows):
        write_feature(d / ("%s.pse.ssft" % r[0]),
                      FeatureMatrix(kind="pse", data=np.array([[0.1 * i]]), hop=0.0))
    (d / "fast.conf").write_text("epochs = 4\nhidden1 = 4\nhidden2 = 3\n")
    assert main(["train-cm", "--features", "pse", "--manifest", str(d / "cm.tsv"),
                 "--feature-dir", str(d), "--out-model", str(d / "cm.mdl"),
                 "--config", str(d / "fast.conf")]) == 0
    (d / "cm.scores").write_text("".join(
        "%s\t%s\t%s\t%g\n" % (r[0], r[4], r[2], 0.2 * i) for i, r in enumerate(rows)))

    asv = [("%sr%d" % (s, i), s, "target-real", "-", "-", "x.wav")
           for s in ("T1", "T2") for i in range(2)]
    asv.append(("imp0", "I1", "impersonation", "T1", "-", "x.wav"))
    write_manifest(d / "asv.tsv", asv)
    assert main(["pairs", "--manifest", str(d / "asv.tsv"), "--category", "all",
                 "--out", str(d / "trials.tsv")]) == 0
    rng = np.random.default_rng(0)
    with open(d / "emb.txt", "w") as fh:
        fh.write("dim=4\n")
        for r in asv:
            fh.write("%s\t%s\n" % (r[0], " ".join("%.6g" % v for v in rng.normal(size=4))))
    return d


COMMANDS = {
    "eval-eer": lambda d, out: ["eval", "--scores", d / "cm.scores", "--out", out / "eer.csv"],
    "eval-tdcf": lambda d, out: ["eval", "--scores", d / "cm.scores", "--metric", "tdcf",
                                 "--cost-config", TDCF_CONF, "--out", out / "tdcf.csv"],
    "pairs": lambda d, out: ["pairs", "--manifest", d / "asv.tsv", "--category", "all",
                             "--out", out / "trials.tsv"],
    "score-asv": lambda d, out: ["score-asv", "--pairs", d / "trials.tsv", "--embeddings",
                                 d / "emb.txt", "--out-scores", out / "asv.scores"],
    "train-cm": lambda d, out: ["train-cm", "--features", "pse", "--manifest", d / "cm.tsv",
                                "--feature-dir", d, "--out-model", out / "cm.mdl",
                                "--config", d / "fast.conf"],
    "score-cm": lambda d, out: ["score-cm", "--model", d / "cm.mdl", "--features", "pse",
                                "--manifest", d / "cm.tsv", "--feature-dir", d,
                                "--out-scores", out / "cm.scores"],
}


@pytest.mark.parametrize("module", ["spoofsense", "spoofsense.cli"])
def test_import_loads_no_scipy(module):
    assert probe(module=module) == (None, [])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_without_dsp_loads_no_scipy(inputs, tmp_path, name):
    assert probe(COMMANDS[name](inputs, tmp_path)) == (0, [])


def test_extract_mfcc_with_rate_change_loads_scipy(tmp_path):
    # not vacuous: the probe does see scipy once the DSP that needs it runs,
    # and concurrent.futures (with logging) once the block helpers start
    write_wav(tmp_path / "t.wav", tone(150, sr=22050))
    write_manifest(tmp_path / "m.tsv",
                   [("u1", "s1", "bonafide", "-", "-", str(tmp_path / "t.wav"))])
    rc, modules = probe(["extract", "--manifest", tmp_path / "m.tsv", "--feature", "mfcc",
                         "--out-dir", tmp_path / "f"])
    assert rc == 0 and {"scipy.signal", "scipy.fft", "concurrent.futures", "logging"} <= set(modules)
    assert (tmp_path / "f" / "u1.mfcc.ssft").exists()


@pytest.mark.parametrize("kind", ["stft", "f0", "sp", "ap", "jitter-shimmer", "pse"])
def test_extract_at_the_target_rate_loads_no_scipy(tmp_path, kind):
    write_wav(tmp_path / "t.wav", natural_buf(140, seed=3, sr=16000))  # the default rate
    write_manifest(tmp_path / "m.tsv",
                   [("u1", "s1", "bonafide", "-", "-", str(tmp_path / "t.wav"))])
    rc, modules = probe(["extract", "--manifest", tmp_path / "m.tsv", "--feature", kind,
                         "--out-dir", tmp_path / "f"])
    assert rc == 0 and [m for m in modules if m.partition(".")[0] == "scipy"] == []
    assert (tmp_path / "f" / ("u1.%s.ssft" % kind)).exists()


def _imported_packages(node):
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.partition(".")[0]]
    return []


def _unlocked_imports(node, lock_name, locked=False):
    """(line, package) of each import of scipy under node that no enclosing
    `with <lock_name>:` holds."""
    if isinstance(node, ast.With):
        locked = locked or any(isinstance(item.context_expr, ast.Name)
                               and item.context_expr.id == lock_name for item in node.items)
    found = [(node.lineno, pkg) for pkg in _imported_packages(node)
             if pkg == "scipy" and not locked]
    for child in ast.iter_child_nodes(node):
        found += _unlocked_imports(child, lock_name, locked)
    return found


def test_every_scipy_import_holds_the_lock():
    unlocked, seen = [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), name)
        seen += sum("scipy" in _imported_packages(n) for n in ast.walk(tree))
        bound = name == "audio.py" or any(  # the lock is audio's own, not another
            isinstance(n, ast.ImportFrom) and n.module == "audio" and n.level == 1
            and "FIRST_USE" in [a.name for a in n.names] for n in tree.body)
        unlocked += ["%s:%d %s" % (name, line, pkg)
                     for line, pkg in _unlocked_imports(tree, "FIRST_USE" if bound else None)]
    assert unlocked == [] and seen >= 3  # resample, _resample_filter, mfcc
