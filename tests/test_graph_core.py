from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogret.graph_core import (
    Graph,
    ParseError,
    RetractCertificate,
    complement,
    components,
    compose_certificates,
    format_edge_list,
    format_graph6,
    induced_subgraph,
    is_homomorphism,
    parse_edge_list,
    parse_graph6,
    random_cograph,
    verify_retract_certificate,
)
from cogret.cotree import build_cotree
from cogret.oracle import brute_retract, canonical_graph_key

from tests.helpers import (
    BUTTERFLY,
    C4,
    K1,
    K2,
    K3,
    P4,
    PAW,
    random_graph,
    reference_random_cograph,
)


class TestParseEdgeList:
    def test_p4(self):
        g = parse_edge_list("4\n0 1\n1 2\n2 3")
        assert g == P4

    def test_single_vertex(self):
        g = parse_edge_list("1")
        assert g.n == 1 and g.m == 0

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("3\n0 1\n1 0\n1 2")
        assert g.m == 2
        assert g == Graph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "text,line",
        [
            ("3\n0 5", 2),
            ("3\n1 1", 2),
            ("3\n0 1 2", 2),
            ("x", 1),
            ("3\n0 one", 2),
        ],
    )
    def test_errors_name_the_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_roundtrip(self):
        for g in (P4, PAW, BUTTERFLY, K1):
            assert parse_edge_list(format_edge_list(g)) == g


class TestGraph6:
    def test_k4_decodes(self):
        # 'C' = 67 -> n = 4; '~' = 126 -> all six upper-triangle bits set
        assert parse_graph6("C~") == Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])

    def test_k1_encodes(self):
        assert format_graph6(K1) == "@"

    def test_reference_decoder_agreement(self):
        # independent bit-level decode of the packed upper triangle
        for seed in range(50):
            g = random_graph(seed % 9 + 1, seed)
            s = format_graph6(g)
            data = s.encode()
            n = data[0] - 63
            bits = []
            for b in data[1:]:
                bits.extend((b - 63) >> k & 1 for k in range(5, -1, -1))
            edges = set()
            pos = 0
            for j in range(1, n):
                for i in range(j):
                    if bits[pos]:
                        edges.add((i, j))
                    pos += 1
            assert set(g.edges()) == edges

    def test_roundtrip_thousand_seeds(self):
        for seed in range(1000):
            g = random_graph(seed % 32 + 1, seed, p=0.4)
            assert parse_graph6(format_graph6(g)) == g

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    def test_large_n_header(self):
        g = Graph(100, [(0, 99)])
        assert parse_graph6(format_graph6(g)) == g

    def test_bad_input(self):
        with pytest.raises(ParseError):
            parse_graph6("C")  # missing body
        with pytest.raises(ParseError):
            parse_graph6("C~~")  # excess body


class TestComplement:
    def test_k3(self):
        assert complement(K3) == Graph(3)

    def test_p4_self_complementary(self):
        co = complement(P4)
        assert canonical_graph_key(co) == canonical_graph_key(P4)

    def test_c4_gives_2k2(self):
        assert complement(C4) == Graph(4, [(0, 2), (1, 3)])

    @given(st.integers(0, 10 ** 6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, seed, n):
        g = random_graph(n, seed)
        assert complement(complement(g)) == g


class TestComponents:
    def test_two_k2(self):
        assert components(Graph(4, [(0, 1), (2, 3)])) == [(0, 1), (2, 3)]

    def test_k4(self):
        assert components(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])) == [
            (0, 1, 2, 3)
        ]

    def test_3k1(self):
        assert components(Graph(3)) == [(0,), (1,), (2,)]


class TestInducedSubgraph:
    def test_butterfly_triangle(self):
        sub, table = induced_subgraph(BUTTERFLY, {0, 1, 2})
        assert sub == K3
        assert table == (0, 1, 2)

    def test_whole_graph(self):
        sub, table = induced_subgraph(PAW, range(4))
        assert sub == PAW and table == (0, 1, 2, 3)

    def test_p4_endpoints(self):
        sub, _ = induced_subgraph(P4, {0, 3})
        assert sub == Graph(2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(K3, {0, 7})


class TestHomomorphism:
    def test_identity(self):
        assert is_homomorphism(PAW, PAW, (0, 1, 2, 3))

    def test_edge_collapse_rejected(self):
        assert not is_homomorphism(K2, K1, (0, 0))

    def test_c4_two_coloring(self):
        assert is_homomorphism(C4, K2, (0, 1, 0, 1))

    def test_negative_image_rejected(self):
        # phi[1] == -1 would index the last vertex of h
        assert not is_homomorphism(K2, K2, (0, -1))
        assert not is_homomorphism(Graph(2), K1, (0, -1))

    def test_out_of_range_image_rejected(self):
        assert not is_homomorphism(K2, K2, (0, 2))
        assert not is_homomorphism(K1, Graph(0), (0,))

    def test_wrong_length_rejected(self):
        assert not is_homomorphism(K2, K2, (0,))
        assert not is_homomorphism(K2, K2, (0, 1, 0))
        assert not is_homomorphism(K1, K1, ())

    def test_empty_map(self):
        assert is_homomorphism(Graph(0), K1, ())
        assert is_homomorphism(Graph(0), Graph(0), ())

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_composition_of_homs_is_hom(self, seed):
        g = random_cograph(5, seed)
        h = random_cograph(4, seed + 1)
        k = random_cograph(4, seed + 2)
        from cogret.oracle import brute_hom

        phi = brute_hom(g, h)
        psi = brute_hom(h, k)
        if phi is not None and psi is not None:
            composed = tuple(psi[phi[v]] for v in range(g.n))
            assert is_homomorphism(g, k, composed)


class TestCertificates:
    def test_c4_to_k2(self):
        cert = RetractCertificate(rho=(0, 1, 0, 1), gamma=(0, 1))
        assert verify_retract_certificate(C4, K2, cert)

    def test_identity(self):
        ident = RetractCertificate(rho=(0, 1, 2, 3), gamma=(0, 1, 2, 3))
        assert verify_retract_certificate(PAW, PAW, ident)

    def test_bad_rho_rejected(self):
        cert = RetractCertificate(rho=(0, 0), gamma=(0,))
        assert not verify_retract_certificate(K2, K1, cert)

    def test_wrong_lengths_rejected(self):
        cert = RetractCertificate(rho=(0,), gamma=(0,))
        assert not verify_retract_certificate(K2, K1, cert)
        cert = RetractCertificate(rho=(0, 0), gamma=(0, 0))
        assert not verify_retract_certificate(Graph(2), K1, cert)

    def test_non_identity_composition_rejected(self):
        # both maps are automorphisms of K2, but rho . gamma swaps the ends
        assert not verify_retract_certificate(K2, K2, RetractCertificate(rho=(1, 0), gamma=(0, 1)))
        assert verify_retract_certificate(K2, K2, RetractCertificate(rho=(1, 0), gamma=(1, 0)))
        # rho swaps the twins 2 and 3, so the copy of 2 goes back to 3
        paw = RetractCertificate(rho=(0, 1, 3, 2), gamma=(0, 1, 2, 3))
        assert is_homomorphism(PAW, PAW, paw.rho)
        assert not verify_retract_certificate(PAW, PAW, paw)

    def test_out_of_range_maps_rejected(self):
        # gamma == (-1,) would pass rho . gamma == id through rho[-1]
        cert = RetractCertificate(rho=(0, 0), gamma=(-1,))
        assert not verify_retract_certificate(Graph(2), K1, cert)
        cert = RetractCertificate(rho=(0, 0), gamma=(2,))
        assert not verify_retract_certificate(Graph(2), K1, cert)
        cert = RetractCertificate(rho=(0, 1), gamma=(0,))
        assert not verify_retract_certificate(Graph(2), K1, cert)

    def test_compose_identity(self):
        ident = RetractCertificate(rho=(0, 1, 2), gamma=(0, 1, 2))
        assert compose_certificates(ident, ident) == ident

    def test_compose_butterfly_chain(self):
        cert_ga = brute_retract(BUTTERFLY, K3)
        cert_ab = brute_retract(K3, K3)
        assert isinstance(cert_ga, RetractCertificate)
        composed = compose_certificates(cert_ga, cert_ab)
        assert verify_retract_certificate(BUTTERFLY, K3, composed)

    def test_compose_three_link_chain_matches_oracle(self):
        # butterfly -> K3 -> K2? clique numbers differ, so chain through K3 twice
        g = BUTTERFLY
        a = K3
        cert1 = brute_retract(g, a)
        cert2 = brute_retract(a, a)
        cert3 = brute_retract(a, a)
        assert isinstance(cert1, RetractCertificate)
        two = compose_certificates(cert1, cert2)
        three = compose_certificates(two, cert3)
        assert verify_retract_certificate(g, a, three)
        assert isinstance(brute_retract(g, a), RetractCertificate)

    def test_compose_dimension_mismatch(self):
        a = RetractCertificate(rho=(0, 1), gamma=(0, 1))
        b = RetractCertificate(rho=(0,), gamma=(0,))
        with pytest.raises(ValueError):
            compose_certificates(a, b)


class TestRandomCograph:
    def test_single_vertex(self):
        assert random_cograph(1, 7) == K1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            random_cograph(0, 1)

    def test_always_a_cograph(self):
        for seed in range(1000):
            g = random_cograph(seed % 12 + 1, seed)
            build_cotree(g)  # raises NotCographError on failure

    def test_deterministic(self):
        assert random_cograph(9, 123) == random_cograph(9, 123)
        assert random_cograph(9, 123) != random_cograph(9, 124)

    def test_same_graphs_as_recursive_construction(self):
        for n in range(1, 61):
            for seed in range(6):
                assert random_cograph(n, seed) == reference_random_cograph(n, seed)
