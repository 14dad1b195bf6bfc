import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degstab import Graph, complete, cycle, empty_graph, petersen
from degstab.codecs import FORMATS, decode, encode
from degstab.errors import InvalidParameterError, ParseError, UnsupportedError
from tests import oracles


class TestGraph6:
    def test_triangle_is_Bw(self):
        # Hand-encoded: order byte chr(63+3)='B'; upper-triangle bits
        # (0,1)(0,2)(1,2) = 111, padded to 111000 = 56, chr(63+56)='w'.
        assert encode(complete(3), "graph6") == "Bw"
        assert decode("Bw", "graph6") == complete(3)

    def test_small_known_values(self):
        assert encode(empty_graph(0), "graph6") == "?"
        assert encode(empty_graph(1), "graph6") == "@"
        assert encode(complete(2), "graph6") == "A_"
        # C5: bits 1010011001 -> 101001|1001(00) -> 'h','c'
        assert encode(cycle(5), "graph6") == "Dhc"

    def test_petersen_round_trip(self):
        assert decode(encode(petersen(), "graph6"), "graph6") == petersen()

    def test_header_prefix_and_newline_tolerated(self):
        text = ">>graph6<<" + encode(petersen(), "graph6") + "\n"
        assert decode(text, "graph6") == petersen()

    def test_three_byte_order_form(self):
        for n in (63, 100):
            g = Graph.from_edges(n, [(0, 1), (n - 2, n - 1)])
            text = encode(g, "graph6")
            assert text.startswith("~")
            assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
            assert decode(text, "graph6") == g

    def test_order_bound(self):
        with pytest.raises(UnsupportedError):
            encode(empty_graph(258048), "graph6")
        with pytest.raises(UnsupportedError):
            decode("~~??????", "graph6")

    def test_malformed_inputs(self):
        with pytest.raises(ParseError):
            decode("", "graph6")
        err = pytest.raises(ParseError, decode, "B\x1f", "graph6").value
        assert err.offset == 1  # byte below the graph6 range
        with pytest.raises(ParseError):
            decode("B", "graph6")  # body too short
        err = pytest.raises(ParseError, decode, "Bww", "graph6").value
        assert err.offset == 2  # trailing byte
        with pytest.raises(ParseError):
            decode("~??", "graph6")  # truncated long header
        with pytest.raises(ParseError):
            decode("~??a", "graph6")  # non-canonical long order <= 62

    def test_nonzero_padding_rejected(self):
        # 'Bw' has three padding bits; setting one of them gives 'Bx'.
        with pytest.raises(ParseError):
            decode("Bx", "graph6")


class TestEdgeList:
    def test_round_trip_text(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        text = encode(g, "edge-list")
        assert text == "4 2\n0 1\n2 3\n"
        assert decode(text, "edge-list") == g

    def test_empty_input_is_error(self):
        err = pytest.raises(ParseError, decode, "", "edge-list").value
        assert err.offset == 0

    def test_malformed_inputs(self):
        with pytest.raises(ParseError):
            decode("3", "edge-list")  # missing edge count
        with pytest.raises(ParseError):
            decode("3 x", "edge-list")
        with pytest.raises(ParseError):
            decode("3 2\n0 1", "edge-list")  # fewer edges than promised
        err = pytest.raises(ParseError, decode, "3 1\n0 1\n1 2", "edge-list").value
        assert err.offset == 8  # trailing tokens start at the second edge
        with pytest.raises(ParseError):
            decode("3 1\n0 3", "edge-list")  # endpoint out of range
        with pytest.raises(ParseError):
            decode("3 1\n1 1", "edge-list")  # self-loop
        with pytest.raises(ParseError):
            decode("3 2\n0 1\n1 0", "edge-list")  # duplicate edge


class TestJson:
    def test_round_trip_text(self):
        g = Graph.from_edges(3, [(0, 2)])
        text = encode(g, "json")
        assert text == '{"edges":[[0,2]],"order":3}'
        assert decode(text, "json") == g

    def test_malformed_inputs(self):
        err = pytest.raises(ParseError, decode, "{", "json").value
        assert err.offset == 1
        with pytest.raises(ParseError):
            decode("[]", "json")
        with pytest.raises(ParseError):
            decode('{"order": 2}', "json")
        with pytest.raises(ParseError):
            decode('{"order": -1, "edges": []}', "json")
        with pytest.raises(ParseError):
            decode('{"order": true, "edges": []}', "json")
        with pytest.raises(ParseError):
            decode('{"order": false, "edges": []}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, 1], [1, 0]]}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, true]]}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, 0]]}', "json")


class TestRoundTrips:
    def test_seeded_corpus_all_formats(self):
        rng = random.Random(20)
        for trial in range(1000):
            order = rng.randint(0, 32)
            g = oracles.random_graph(rng, order, rng.random())
            for fmt in FORMATS:
                assert decode(encode(g, fmt), fmt) == g, (trial, fmt)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        order=st.integers(min_value=0, max_value=24),
    )
    def test_property_round_trip(self, data, order):
        pairs = [(i, j) for j in range(1, order) for i in range(j)]
        chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        g = Graph.from_edges(order, sorted(chosen))
        for fmt in FORMATS:
            assert decode(encode(g, fmt), fmt) == g

    def test_unknown_format(self):
        with pytest.raises(InvalidParameterError):
            encode(complete(3), "dot")
        with pytest.raises(InvalidParameterError):
            decode("", "dot")
