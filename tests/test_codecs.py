import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degstab import Graph, balanced_blow_up, complete, cycle, empty_graph, petersen
from degstab.codecs import FORMATS, decode, encode
from degstab.errors import InvalidParameterError, ParseError, UnsupportedError
from degstab.witness import scan_seed
from tests import oracles


def _outcome(decoder, text):
    """The decoded graph, or the class, message and offset of the error."""
    try:
        return decoder(text)
    except (ParseError, UnsupportedError) as e:
        return type(e), str(e), getattr(e, "offset", None)


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

    def test_three_byte_header_stops_at_the_bound(self):
        # The largest three-byte header is the bound itself; a second "~"
        # is the eight-byte form, whatever follows.
        with pytest.raises(ParseError, match="graph6 body too short"):
            decode("~}~~", "graph6")
        with pytest.raises(UnsupportedError):
            decode("~~~~", "graph6")

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


class TestGraph6Reference:
    def test_encode_matches_the_reference_and_decode_inverts_it(self):
        rng = random.Random(612)
        headers, paddings = set(), set()
        for n in [*range(71), 100]:
            for p in (0.1, 0.5, 0.9):
                g = oracles.random_graph(rng, n, p)
                text = encode(g, "graph6")
                assert text == oracles.graph6(g)
                assert decode(text, "graph6") == g
                headers.add(text[0] == "~")
                paddings.add(-(n * (n - 1) // 2) % 6)
        # n(n - 1)/2 mod 6 is one of 0, 1, 3 and 4, so these are every
        # padding length graph6 can have.
        assert headers == {False, True}
        assert paddings == {0, 2, 3, 5}

    def test_padding_bit_in_the_last_byte_of_order_63(self):
        # 1953 pairs take 326 body bytes after the 4-byte header; the last
        # one, at offset 4 + 325, carries three padding bits.
        text = encode(oracles.random_graph(random.Random(63), 63, 0.5), "graph6")
        assert len(text) == 330
        for bit in (1, 2, 4):
            bad = text[:-1] + chr(ord(text[-1]) + bit)
            assert pytest.raises(ParseError, decode, bad, "graph6").value.offset == 329
            err = pytest.raises(ParseError, decode, ">>graph6<<" + bad, "graph6").value
            assert err.offset == 339

    def test_decode_errors_match_the_reference(self):
        # Every truncation, and at every byte a substitute below, above and
        # outside the range and a line break; at the order bytes and the last
        # byte, where an in-range byte can raise too, "?", "~" and each
        # one-bit flip.
        rng = random.Random(70)
        for n in [*range(71), 100]:
            text = encode(oracles.random_graph(rng, n, 0.5), "graph6")
            raising = {*range(1 if n <= 62 else 4), len(text) - 1}
            for prefix in ("", ">>graph6<<"):
                cases = [prefix + text[:k] for k in range(len(text) + 1)]
                for k, ch in enumerate(text):
                    subs = [">", "\x7f", "\n", "\xe9"]
                    if k in raising:
                        subs += ["?", "~"] + [chr(63 + ((ord(ch) - 63) ^ (1 << b))) for b in range(6)]
                    cases += [prefix + text[:k] + sub + text[k + 1 :] for sub in subs]
                for case in cases:
                    expected = _outcome(oracles.decode_graph6, case)
                    assert _outcome(lambda t: decode(t, "graph6"), case) == expected, case

    def test_blow_up_of_order_2000_round_trips(self):
        g = balanced_blow_up(scan_seed("gallery-join", 5, 4), 2000)
        text = encode(g, "graph6")
        assert text == oracles.graph6_by_chunks(g)
        assert decode(text, "graph6") == g

    def test_encoder_peak_memory_at_order_2000(self):
        # The triangle is encoded a few thousand bits at a time, so the peak
        # is the output held as bytes and then as text, about two bytes per
        # output byte; one string of the whole triangle would be six.
        g = balanced_blow_up(scan_seed("gallery-join", 5, 4), 2000)
        tracemalloc.start()
        try:
            text = encode(g, "graph6")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 4 + (2000 * 1999 // 2 + 5) // 6
        assert peak <= 4 * len(text)


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
        err = pytest.raises(ParseError, decode, "-3 0", "edge-list").value
        assert err.offset == 0  # negative vertex count
        err = pytest.raises(ParseError, decode, "3 -1", "edge-list").value
        assert err.offset == 2  # negative edge count
        err = pytest.raises(ParseError, decode, "3 1\n3 0", "edge-list").value
        assert err.offset == 4  # first endpoint out of range
        err = pytest.raises(ParseError, decode, "3 1\n0 3", "edge-list").value
        assert err.offset == 6  # endpoint out of range
        err = pytest.raises(ParseError, decode, "3 1\n1 1", "edge-list").value
        assert err.offset == 4  # self-loop
        err = pytest.raises(ParseError, decode, "3 2\n0 1\n1 0", "edge-list").value
        assert err.offset == 8  # duplicate edge

    def test_order_bound(self):
        # graph6's bound holds in every format.
        for n in (2000000, 258048):
            with pytest.raises(UnsupportedError):
                decode(f"{n} 0", "edge-list")
        assert decode("258047 1\n0 258046", "edge-list").order == 258047


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
        with pytest.raises(ParseError, match="must be a list"):
            decode('{"order": 2, "edges": {}}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, true]]}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, 0]]}', "json")
        with pytest.raises(ParseError):
            decode('{"order": 2, "edges": [[0, 2]]}', "json")
        with pytest.raises(ParseError, match="nested too deeply"):
            decode("[" * 200000, "json")

    def test_order_bound(self):
        for n in (2000000, 258048):
            with pytest.raises(UnsupportedError):
                decode(f'{{"order": {n}, "edges": []}}', "json")
        assert decode('{"order": 258047, "edges": []}', "json").order == 258047


class TestRoundTrips:
    def test_seeded_corpus_all_formats(self):
        rng = random.Random(20)
        for trial in range(1000):
            order = rng.randint(0, 32)
            g = oracles.random_graph(rng, order, rng.random())
            for fmt in FORMATS:
                decoded = decode(encode(g, fmt), fmt)
                assert decoded == g, (trial, fmt)
                # Decoders skip Graph's check, so each must pass it.
                oracles.assert_checked(decoded)

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

    @pytest.mark.parametrize("fmt", [["x"], 5, None])
    def test_format_that_is_not_a_name(self, fmt):
        message = f"unknown format {fmt!r}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            encode(complete(3), fmt)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            decode("Bw", fmt)
