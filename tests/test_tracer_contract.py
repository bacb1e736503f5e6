"""What the benchmark tracer (perfbench/tracing.py) needs of the package.

The tracer hooks functions by name, `owner.__dict__[attr]`, and counts
seals by calls to `engine.encrypt`. A renamed hook target or a seal that
bypasses `engine.encrypt` would only show in the benchmark's smoke run;
these tests catch both in the Tier-1 suite. They only read perfbench/.
"""
import importlib.util
from pathlib import Path

import numpy as np

from cipheropt import engine
from cipheropt.channel import SharedKey

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves():
    tracing = load_tracing()
    targets = tracing._targets()
    hooked = {(getattr(owner, "__name__", type(owner).__name__), attr)
              for owner, attr, *_ in targets}
    assert {("cipheropt.theory", "verify_contraction"),
            ("cipheropt.theory", "verify_lemma_inequalities"),
            ("cipheropt.engine", "encrypt")} <= hooked
    for owner, attr, span, *_ in targets:
        target = owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)
        assert callable(target), f"the tracer hooks {attr!r} of {owner!r}, which is gone"
        assert span in tracing.SPANS


def test_a_sealed_send_seals_each_frame_through_engine_encrypt(monkeypatch):
    sealed = []
    encrypt = engine.encrypt

    def counting(key, payload, nonces):
        sealed.append(payload.frame)
        return encrypt(key, payload, nonces)

    monkeypatch.setattr(engine, "encrypt", counting)
    m, d = 3, 2
    rng = np.random.default_rng(0)
    jy, js, jw = rng.random((m, m, d)), rng.random((m, m, d)), rng.random((m, m))
    senders, receivers = np.array([1, 1, 2, 3]), np.array([2, 3, 1, 2])
    engine.Transport(m, SharedKey.from_seed(0), None).send(4, senders, receivers, jy, js, jw)
    assert len(sealed) == 3 * len(senders)  # a Y, an S and a W frame per message
    assert len(set(sealed)) == len(sealed)
