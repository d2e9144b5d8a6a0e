import pytest

from isobound import (Gadget, GadgetCertificate, Graph,
                      chain, certify_special_edge,
                      exact_isolation_number,
                      metacirculant_14, prism_k4)

from isobound.families import ORACLE_ORDER_LIMIT
from isobound.check import MAX_ORDER

from graphs import complete_graph, is_connected
from oracles import (brute_force_isolation, exact_isolation_number_recursive, girth,
                     remove_vertices, triangles)


def test_prism_structure():
    g = prism_k4()
    assert g.F.n == 8 and g.b == 2
    assert all(len(g.F.adj[v]) == 4 for v in range(8))
    assert is_connected(g.F)
    assert girth(g.F) == 3
    x, y = g.special_edge
    assert y in g.F.adj[x]


def test_metacirculant_structure():
    g = metacirculant_14()
    assert g.F.n == 14 and g.b == 3
    assert all(len(g.F.adj[v]) == 4 for v in range(14))
    assert is_connected(g.F)
    assert triangles(g.F) == []
    assert girth(g.F) == 4
    assert g.special_edge == (0, 1)


def test_prism_certificate():
    cert = certify_special_edge(prism_k4())
    assert (cert.iota_f, cert.iota_f_minus_x, cert.iota_f_minus_y,
            cert.iota_f_minus_xy) == (2, 2, 2, 2)
    assert cert.valid
    assert 5 * cert.b == 10
    assert certify_special_edge(prism_k4()) == cert


def test_metacirculant_certificate():
    cert = certify_special_edge(metacirculant_14())
    assert (cert.iota_f, cert.iota_f_minus_x, cert.iota_f_minus_y,
            cert.iota_f_minus_xy) == (3, 3, 3, 3)
    assert cert.valid
    assert 2 * cert.b == 6


def test_prism_values_match_brute_force():
    g = prism_k4()
    assert brute_force_isolation(g.F)[0] == 2
    for drop in ((0,), (4,), (0, 4)):
        H, _ = remove_vertices(g.F, drop)
        assert brute_force_isolation(H)[0] == 2


def test_k4_edge_is_not_a_b2_gadget():
    k4 = complete_graph(4)
    cert = certify_special_edge(Gadget(k4, (0, 1), b=2))
    assert cert.iota_f == 1
    assert not cert.valid


def test_gadget_validation():
    k4 = complete_graph(4)
    with pytest.raises(ValueError, match="not an edge"):
        Gadget(prism_k4().F, (0, 5), b=2)
    for outside in ((8, 0), (-8, 1)):
        with pytest.raises(ValueError, match="not an edge"):
            Gadget(prism_k4().F, outside, b=2)
    with pytest.raises(ValueError, match="regular"):
        Gadget(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]), (0, 1), b=1)
    with pytest.raises(ValueError, match=">= 1"):
        Gadget(k4, (0, 1), b=0)


def test_oracle_order_limit():
    big = chain(prism_k4(), 6)  # 48 vertices, 4-regular
    gadget = Gadget(big, next(iter(big.edges())), b=1)
    assert big.n > ORACLE_ORDER_LIMIT
    with pytest.raises(ValueError, match="limit"):
        certify_special_edge(gadget)


def test_certify_a_24_vertex_gadget():
    F = chain(prism_k4(), 3)  # 24 vertices
    x, y = next(iter(F.edges()))
    cert = certify_special_edge(Gadget(F, (x, y), b=6))
    want = [exact_isolation_number_recursive(remove_vertices(F, drop)[0]).iota
            for drop in ((), (x,), (y,), (x, y))]
    assert [cert.iota_f, cert.iota_f_minus_x, cert.iota_f_minus_y,
            cert.iota_f_minus_xy] == want
    assert want == [6, 6, 5, 5] and not cert.valid


@pytest.mark.parametrize("s", [2, 3, 4])
def test_chain_shape(s):
    for gadget in (prism_k4(), metacirculant_14()):
        g = chain(gadget, s)
        assert g.n == s * gadget.F.n
        assert all(len(g.adj[v]) == 4 for v in range(g.n))
        assert is_connected(g)


def test_chain_keeps_triangle_freeness():
    for s in (2, 3):
        g = chain(metacirculant_14(), s)
        assert triangles(g) == []
        assert girth(g) == 4


def test_chain_rejects_short():
    with pytest.raises(ValueError, match="at least 2"):
        chain(prism_k4(), 1)
    # s*8 vertices would pass MAX_ORDER; nothing may be built first
    with pytest.raises(ValueError, match="exceeds"):
        chain(prism_k4(), MAX_ORDER // 8 + 1)


def test_chain_prism_two_copies_exact():
    g = chain(prism_k4(), 2)
    cert = certify_special_edge(prism_k4())
    res = exact_isolation_number(g)
    assert res.iota == 2 * cert.b == 4
    assert res.iota * 4 == g.n  # the n/4 extremal family


def test_chain_lower_bound_via_size_cap():
    g = chain(prism_k4(), 2)
    cert = certify_special_edge(prism_k4())
    below = exact_isolation_number(g, size_cap=2 * cert.b - 1)
    assert below.iota is None and below.witness is None


def test_certificate_json():
    cert = certify_special_edge(prism_k4())
    d = cert.to_json_dict()
    assert d["valid"] is True
    assert d["b"] == 2 and d["iota_f"] == 2
    assert "chain_lower_bound_per_copy" not in d
    invalid = GadgetCertificate(3, 2, 3, 3, 3)
    assert invalid.to_json_dict()["valid"] is False
    assert list(certify_special_edge(metacirculant_14()).to_json_dict().items()) == [
        ("b", 3), ("iota_f", 3), ("iota_f_minus_x", 3), ("iota_f_minus_y", 3),
        ("iota_f_minus_xy", 3), ("valid", True)]
