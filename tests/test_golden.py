"""Checker reports, first-Witt-index sets and certificates compared against a stored fixture.

The fixture pins the full output of check_all (every key, name, verdict and
witness text), witt_index_readoff and check_springer on a fixed set of
families, allowed_first_witt_indices for dim 3..80, and one SHA-256 per
certifier method over certificate_json of all 56 triples with n <= 9.
Regenerate it with `PYTHONPATH=src python tests/test_golden.py` only when a
change of these outputs is intended.
"""

import hashlib
import json
from pathlib import Path

from chowq import (
    QuadricGeometry,
    SplittingData,
    allowed_first_witt_indices,
    check_all,
    check_springer,
    closure,
    enumerate_basis,
    family_from_generators,
    known_generator,
    parse_cycle,
    render_cycle,
    single,
    witt_index_readoff,
)
from chowq.holes import HoleParams, certificate_json, verify_contradiction

FIXTURE = Path(__file__).with_name("golden_checks.json")


def staircase(D, a, splitting, max_arity):
    g = QuadricGeometry(D)
    split = SplittingData(splitting) if splitting else None
    return family_from_generators(g, max_arity, [known_generator(g, a)], split)


def from_text(D, max_arity, texts, splitting=None):
    g = QuadricGeometry(D)
    gens = [parse_cycle(t, g, len(t.split(" + ")[0].split(" x "))) for t in texts]
    split = SplittingData(splitting) if splitting else None
    return family_from_generators(g, max_arity, gens, split)


def families():
    """(name, family, inner family or None) for every case in the fixture."""
    g = QuadricGeometry(6)
    base = closure(staircase(6, 2, (2, 2), 2))
    out = []
    for be in enumerate_basis(g, 2):
        cell = single(g, *be.factors)
        if be.is_essential and cell.dimension >= 6 and not base.contains(cell):
            fam = family_from_generators(
                g, 2, [known_generator(g, 2) + cell], SplittingData((2, 2))
            )
            out.append((f"D6 (2,2) + {render_cycle(cell)}", fam, None))
    out += [
        ("D6 (2,2) inner D2", staircase(6, 2, (2, 2), 3), staircase(2, 2, (2,), 3)),
        ("D8 a=1 no splitting", staircase(8, 1, None, 3), None),
        ("D6 a=2 splitting (2,1,1)", staircase(6, 2, (2, 1, 1), 2), None),
        ("D6 point", from_text(6, 2, ["l0", "h0 x l1 + l1 x h0"]), None),
        ("D6 arity 1 middle class", from_text(6, 1, ["l3"], (2, 2)), None),
    ]
    return out


def snapshot():
    reports = {}
    for name, fam, inner in families():
        closed = closure(fam)
        springer = check_springer(closed)
        reports[name] = {
            "check_all": [
                [key, r.name, r.passed, [str(w) for w in r.witnesses]]
                for key, r in check_all(fam, inner).items()
            ],
            "witt_index_readoff": witt_index_readoff(closed),
            "springer": [springer.passed, list(springer.witnesses)],
        }
    allowed = {str(dim): sorted(allowed_first_witt_indices(dim)) for dim in range(3, 81)}
    return {"families": reports, "allowed_first_witt_indices": allowed}


def certificate_digests():
    """method -> SHA-256 of the certificates of every (n, m, p) with n <= 9, one per line."""
    triples = [(n, m, p) for n in range(4, 10) for m in range(3, n) for p in range(1, m - 1)]
    out = {}
    for name, kwargs in (("default", {}), ("bilinear", {"method": "bilinear"})):
        certs = (certificate_json(verify_contradiction(HoleParams(*t), **kwargs)) for t in triples)
        out[name] = hashlib.sha256("\n".join(certs).encode()).hexdigest()
    return out


def test_matches_fixture():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(snapshot()))
    assert got["families"].keys() == want["families"].keys()
    for name in want["families"]:
        assert got["families"][name] == want["families"][name], name
    assert got["allowed_first_witt_indices"] == want["allowed_first_witt_indices"]


def test_certificates_match_fixture():
    assert certificate_digests() == json.loads(FIXTURE.read_text())["certificate_sha256"]


if __name__ == "__main__":
    fixture = {**snapshot(), "certificate_sha256": certificate_digests()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
