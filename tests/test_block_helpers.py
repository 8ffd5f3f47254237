"""audio.by_row_blocks on the calling thread and its block helpers, the
threads of a ThreadPoolExecutor.

serial_by_row_blocks is the earlier by_row_blocks, verbatim: every block on
the calling thread, in row order.  Helper threads must change nothing a
caller can see: the frame kernels give the same bytes with 0, 1 or 3
helpers, the first failing block in row order raises, and only once no
helper runs a block any more, and an np.errstate of the caller holds on
every thread.
"""

import concurrent.futures
import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import natural_buf, write_manifest
from spoofsense import audio, f0 as f0_module, spectral
from spoofsense.audio import BLOCK_ROWS, by_row_blocks, helper_pool, write_wav
from spoofsense.errors import InputTooShort
from spoofsense.f0 import F0Config, F0Contour, estimate_f0
from spoofsense.spectral import EnvelopeConfig, band_aperiodicity, spectral_envelope
from test_kernel_oracles import _framed_buf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B = BLOCK_ROWS


def serial_by_row_blocks(fn, *arrays):
    """fn applied to successive BLOCK_ROWS-row slices of the arrays (all of
    one length), its results stacked in row order; with no rows, fn of the
    empty arrays.  Exact for an fn that treats each row on its own."""
    first = fn(*(a[:BLOCK_ROWS] for a in arrays))
    n = len(arrays[0])
    if n <= BLOCK_ROWS:
        return first
    out = np.empty((n,) + first.shape[1:], first.dtype)
    out[:BLOCK_ROWS] = first
    for i in range(BLOCK_ROWS, n, BLOCK_ROWS):
        out[i : i + BLOCK_ROWS] = fn(*(a[i : i + BLOCK_ROWS] for a in arrays))
    return out


# made once: their threads, once started, stay for the whole test process
POOLS = {k: helper_pool(k) for k in (0, 1, 3)}


@contextlib.contextmanager
def helpers(k):
    """by_row_blocks with k helper threads, however many cores there are."""
    saved = audio._helpers
    audio._helpers = POOLS[k]
    try:
        yield
    finally:
        audio._helpers = saved


@contextlib.contextmanager
def serial_kernels():
    saved = f0_module.by_row_blocks, spectral.by_row_blocks
    f0_module.by_row_blocks = spectral.by_row_blocks = serial_by_row_blocks
    try:
        yield
    finally:
        f0_module.by_row_blocks, spectral.by_row_blocks = saved


def _outcome(fn, *args):
    """fn(*args)'s array as (dtype, shape, bytes), or its exception's type and text."""
    try:
        a = fn(*args)
    except Exception as e:
        return type(e), str(e)
    if not isinstance(a, np.ndarray):  # a FeatureMatrix or an F0Contour
        a = getattr(a, "data", getattr(a, "values", None))
    return a.dtype, a.shape, a.tobytes()


def _kernels(buf, cfg, env_cfg):
    try:
        c = estimate_f0(buf, cfg)
    except Exception:
        c = F0Contour(np.zeros(0), hop=cfg.hop, floor=cfg.floor, ceil=cfg.ceil)
    return [_outcome(estimate_f0, buf, cfg),
            _outcome(spectral_envelope, buf, c, env_cfg),
            _outcome(band_aperiodicity, buf, c)]


# ------------------------------------------------ the kernels, byte for byte


@given(
    n_frames=st.integers(0, 3 * B + 5),
    k=st.sampled_from([0, 1, 3]),
    sr=st.sampled_from([16000, 22050]),
    floor=st.floats(66.0, 150.0),
    f0=st.floats(80.0, 300.0),
    seed=st.integers(0, 2**16),
    gap=st.tuples(st.integers(0, 3 * B), st.integers(0, B + 10)),
)
@settings(max_examples=40, deadline=None)
def test_kernels_match_serial_blocks(n_frames, k, sr, floor, f0, seed, gap):
    cfg = F0Config(floor=floor)
    silent = [(gap[0], gap[0] + gap[1])]
    buf = _framed_buf(n_frames, cfg, sr=sr, f0=f0, seed=seed, silent=silent)
    env_cfg = EnvelopeConfig(n_fft=2048)
    with serial_kernels():
        want = _kernels(buf, cfg, env_cfg)
    with helpers(k):
        got = _kernels(buf, cfg, env_cfg)
    assert got == want
    if n_frames:
        assert want[0][1] == (n_frames,)
    else:
        assert want[0][0] is InputTooShort


@pytest.mark.parametrize("k", [1, 3])
def test_empty_lag_band_raises_from_last_block(k):
    # kmin 33 > kmax 32 at 16 kHz: only the frames of the last block are live
    cfg = F0Config(floor=485.0, ceil=490.0)
    n = 3 * B + 20
    buf = _framed_buf(n, cfg, silent=[(0, n - 10)])
    with serial_kernels():
        want = _outcome(estimate_f0, buf, cfg)
    with helpers(k):
        assert _outcome(estimate_f0, buf, cfg) == want
    assert want[0] is ValueError


# ------------------------------------------------------- the block hand-out


class Failed(Exception):
    pass


def _recording_block(fail, slow, log, lock):
    def block(i):
        with lock:
            log.append(("start", i, threading.get_ident()))
        time.sleep(0.002 if i in slow else 0.0)
        try:
            if i in fail:
                raise Failed(i)
        finally:
            with lock:
                log.append(("end", i, threading.get_ident()))
    return block


@given(
    n_blocks=st.integers(1, 10),
    k=st.sampled_from([0, 1, 3]),
    fail=st.sets(st.integers(0, 9)),
    slow=st.sets(st.integers(0, 9)),
)
@settings(max_examples=60, deadline=None)
def test_run_hands_out_each_start_once(n_blocks, k, fail, slow):
    """The first block is the caller's alone; blocks 1.. are handed out."""
    rows = np.arange(n_blocks * B, dtype=np.float64)
    fail, slow = {B * i for i in fail}, {B * i for i in slow}
    log, lock = [], threading.Lock()
    block = _recording_block(fail, slow, log, lock)

    def fn(r):
        block(int(r[0]))
        return r

    starts = range(0, n_blocks * B, B)
    first_failure = min(fail & set(starts), default=None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost hand-out would show
    try:
        with helpers(k):
            if first_failure is None:
                assert by_row_blocks(fn, rows).tobytes() == rows.tobytes()
            else:
                with pytest.raises(Failed) as e:
                    by_row_blocks(fn, rows)
                assert e.value.args == (first_failure,)
    finally:
        sys.setswitchinterval(interval)
    # done when by_row_blocks returns or raises: every block that started has ended
    ran = [i for what, i, _ in log if what == "start"]
    assert sorted(i for what, i, _ in log if what == "end") == sorted(ran)
    assert len(set(ran)) == len(ran)
    if first_failure is None:
        assert sorted(ran) == list(starts)
    else:  # every start before the first failure ran
        assert set(range(0, first_failure, B)) <= set(ran)


@given(
    n=st.integers(0, 3 * B + 5),
    k=st.sampled_from([0, 1, 3]),
    fail=st.sets(st.integers(0, 3)),
)
@settings(max_examples=60, deadline=None)
def test_by_row_blocks_matches_serial(n, k, fail):
    rows = np.arange(n, dtype=np.float64)
    cols = np.arange(3.0)

    def fn(r):
        if len(r) and int(r[0]) // B in fail:
            raise Failed(int(r[0]))
        return np.sqrt(r)[:, None] * cols

    want = _outcome(serial_by_row_blocks, fn, rows)
    with helpers(k):
        got = _outcome(by_row_blocks, fn, rows)
    assert got == want


@pytest.mark.parametrize("overflow_on", ["caller", "helper"])
@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_errstate_holds_on_every_thread(overflow_on, over):
    """Blocks B and 2B are split between the caller and one helper; the one
    on the thread named overflow_on overflows, the other waits for it."""
    main = threading.get_ident()
    overflowed, threads = threading.Event(), []

    def fn(r):
        if r[0] == rows[0]:  # the first block, always the caller's
            return r * 1.0
        on_caller = threading.get_ident() == main
        if on_caller != (overflow_on == "caller") or threads:
            assert overflowed.wait(10.0)
            return r * 1.0
        threads.append(threading.get_ident())
        try:
            return r * 1e308
        finally:
            overflowed.set()

    rows = np.arange(3 * B, dtype=np.float64) + 2.0
    with helpers(1), np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                by_row_blocks(fn, rows)
        else:
            out = by_row_blocks(fn, rows)
            assert np.isinf(out[B:]).sum() == B
    assert len(threads) == 1 and (threads[0] == main) == (overflow_on == "caller")


def test_helpers_belong_to_their_process(monkeypatch):
    mine = helper_pool(1)
    monkeypatch.setattr(audio, "_helpers", mine)
    assert audio._block_helpers() is mine
    monkeypatch.setattr(audio, "_helpers", (-1,) + mine[1:])  # as a forked child sees its parent's
    pid, count, pool = audio._block_helpers()
    assert pid == os.getpid() and pool is not mine[2]
    assert count == len(os.sched_getaffinity(0)) - 1


def test_pool_workers_run_blocks_serially():
    with concurrent.futures.ProcessPoolExecutor(1, initializer=audio.serial_blocks) as ex:
        pid, count, pool = ex.submit(audio._block_helpers).result()
    assert count == 0 and pool is None and pid != os.getpid()


def _threads():
    return set(threading.enumerate())


def test_repeated_calls_start_no_new_threads(monkeypatch):
    """The pool is made once per process: its two threads start in the first
    call with blocks to share, and further calls run on them."""
    monkeypatch.setattr(audio, "_cores", lambda: 3)
    monkeypatch.setattr(audio, "_helpers", None)
    rows = np.arange(10 * B, dtype=np.float64)
    seen, barrier = set(), threading.Barrier(3)

    def first_call(r):  # each thread holds its first block until all three hold one
        if r[0] and threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait(10.0)
        return np.sqrt(r)

    before = _threads()
    assert by_row_blocks(first_call, rows).tobytes() == np.sqrt(rows).tobytes()
    after_first = _threads()
    assert len(after_first - before) == 2 and len(seen) == 3
    for _ in range(20):
        assert by_row_blocks(np.sqrt, rows).tobytes() == np.sqrt(rows).tobytes()
    assert _threads() == after_first
    audio._helpers[2].shutdown()


def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(audio, "_cores", lambda: 1)
    monkeypatch.setattr(audio, "_helpers", None)
    rows = np.arange(5 * B + 3, dtype=np.float64)
    callers = set()

    def fn(r):
        callers.add(threading.get_ident())
        return np.sqrt(r)[:, None] * np.arange(3.0)

    before = _threads()
    got = _outcome(by_row_blocks, fn, rows)
    assert got == _outcome(serial_by_row_blocks, fn, rows)
    assert _threads() == before and callers == {threading.get_ident()}
    assert audio._helpers[1:] == (0, None)


# ------------------------------------------------------------ fork safety

FORK_SCRIPT = """
import sys, threading
import numpy as np
from spoofsense import audio
from spoofsense.audio import AudioBuffer, BLOCK_ROWS
from spoofsense.cli import main
from spoofsense.f0 import estimate_f0

audio._helpers = audio.helper_pool(1)  # one helper, however many cores
c = estimate_f0(AudioBuffer(np.sin(np.arange(16000) * 0.05) * 0.5, 16000))
assert len(c) > 2 * BLOCK_ROWS and threading.active_count() > 1
manifest, out = sys.argv[1:]
for kind in ("f0", "sp", "ap"):
    for jobs in ("2", "1"):
        args = ["extract", "--manifest", manifest, "--feature", kind,
                "--out-dir", out + jobs, "--jobs", jobs]
        assert main(args) == 0, args
"""


def test_extract_jobs_after_helpers_started(tmp_path):
    """Helpers running in the parent, then `extract --jobs 2`: its forked
    workers must not wait on threads that did not fork with them."""
    rows = []
    for i in range(3):
        u = "u%d" % i
        write_wav(tmp_path / ("%s.wav" % u), natural_buf(110 + 40 * i, seed=i, dur=1.0))
        rows.append((u, "s%d" % i, "bonafide", "-", "-", str(tmp_path / ("%s.wav" % u))))
    write_manifest(tmp_path / "m.tsv", rows)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SPOOFSENSE_CONFIG", None)
    p = subprocess.Popen([sys.executable, "-c", FORK_SCRIPT, str(tmp_path / "m.tsv"),
                          str(tmp_path / "out")], env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:  # a hung pool worker too, not just the script
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("extract --jobs 2 after block helpers did not finish in 120 s")
    assert p.returncode == 0, err
    names = sorted(os.listdir(tmp_path / "out1"))
    assert len(names) == 9 and names == sorted(os.listdir(tmp_path / "out2"))
    for name in names:
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
