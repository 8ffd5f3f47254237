"""Outside-in spans around spoofsense's public functions.

Each traced function is replaced, in every spoofsense module that binds it
(estimate_f0 is bound in f0, cli, entropy and perturbation, for example),
by a wrapper that appends a span (name, start, end, parent, amount) to an
in-memory list.  `amount` is an optional size measured after the call,
outside the span: bytes of a feature file, rows parsed, trials scored.

Self time of a span is its duration minus the time its child spans cover;
calls run on one thread and nest, so that is the sum of the direct
children's durations.
"""

import functools
import os
import sys
import time


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _length(args, kwargs, result):
    return len(result)


# module -> {function: how to measure its amount, or None}
TRACED = {
    "audio": {"read_wav": None, "resample": None},
    "f0": {"estimate_f0": None},
    "spectral": {"stft_spectrogram": None, "mfcc": None,
                 "spectral_envelope": None, "band_aperiodicity": None},
    "perturbation": {"region_cycles": None, "utterance_perturbation": None},
    "entropy": {"utterance_pse": None},
    "store": {"write_feature": _file_bytes, "read_feature": _file_bytes},
    "mlp": {"loss_and_grad": None, "train": None,
            "score": None, "save_model": None, "load_model": None},
    "metrics": {"parse_scorefile": _length, "evaluate_scorefile": None,
                "eer": None, "min_tdcf": None, "write_report": None},
    "trials": {"load_manifest": None, "build_all_pairs": None,
               "save_trials": None, "load_trials": None,
               "load_embeddings": None, "score_trials": _length,
               "write_scorefile": None},
    "config": {"load_config": None},
    "cli": {"cmd_extract": None, "cmd_pairs": None, "cmd_train_cm": None,
            "cmd_score_cm": None, "cmd_score_asv": None, "cmd_eval": None},
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, amount]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def span(self, name, fn, *args, amount=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if amount is not None:
            rec[4] = amount(args, kwargs, result)
        return result

    def _wrap(self, name, fn, amount):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, amount=amount, **kwargs)
        return traced

    def install(self):
        """Patch every spoofsense module attribute bound to a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spoofsense" or n.startswith("spoofsense.")]
        for modname, funcs in TRACED.items():
            home = sys.modules["spoofsense." + modname]
            for fname, amount in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (modname, fname), original, amount)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def reset(self):
        self.spans = []

    def summary(self):
        """{name: [calls, self seconds, total amount]} over recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, amount) in enumerate(self.spans):
            s = out.setdefault(name, [0, 0.0, 0])
            s[0] += 1
            s[1] += (t1 - t0) - child[i]
            s[2] += amount or 0
        return out

    def roots(self):
        return [(name, t1 - t0) for name, t0, t1, parent, _ in self.spans if parent < 0]
