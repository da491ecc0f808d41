import kcut.lp as lp_mod
import kcut.packing as packing_mod
from kcut.verify import run_verification


def _count_certified_packs(monkeypatch):
    """Count the certified exact_pack column generations; the uncertified
    ones inside saturating_pack (the psp-ideal-packing row) are left out."""
    calls = []
    real = packing_mod.exact_pack

    def counting(g, caps=None, certify=True):
        if certify:
            calls.append(caps)
        return real(g, caps, certify)

    monkeypatch.setattr(packing_mod, "exact_pack", counting)
    monkeypatch.setattr(lp_mod, "exact_pack", counting)
    return calls


def test_verify_solves_one_dual_per_k(tt, monkeypatch):
    calls = _count_certified_packs(monkeypatch)
    rows = run_verification(tt, ks=[2, 3])
    assert all(r.status == "pass" for r in rows)
    assert len(calls) == 2
    calls.clear()
    rows = run_verification(tt)
    assert all(r.status == "pass" for r in rows)
    assert len(calls) == 5  # k = 2..5 from min_kcut, k = 6 = n from lp_dual
