import json

import pytest

from degstab import (
    DeltaResult,
    Graph,
    balanced_blow_up,
    classify,
    complete,
    cycle,
    decode,
    empty_graph,
    encode,
    petersen,
)
from degstab import codecs, verify
from degstab.cli import main
from degstab.gallery import gallery_graph
from degstab.witness import witness_base
from tests import oracles


def write_graph(tmp_path, name, g, fmt="graph6"):
    path = tmp_path / name
    path.write_text(encode(g, fmt) + ("\n" if fmt == "graph6" else ""))
    return str(path)


class TestGallery:
    def test_g6_output(self, capsys):
        assert main(["gallery", "K4"]) == 0
        assert capsys.readouterr().out == "C~\n"

    def test_alias_and_formats(self, capsys):
        assert main(["gallery", "F4", "--format", "edges"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("7 14\n")
        assert main(["gallery", "petersen", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 10

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "w5.g6"
        assert main(["gallery", "W5", "--out", str(target)]) == 0
        assert decode(target.read_text(), "graph6").order == 6

    @pytest.mark.parametrize("fmt", codecs.FORMATS)
    def test_every_format_is_read_back_by_its_suffix(self, fmt, tmp_path, capsys):
        short = {f: s for s, f in codecs.SHORT_NAMES.items()}[fmt]
        target = tmp_path / f"w5.{short}"
        assert main(["gallery", "W5", "--format", short, "--out", str(target)]) == 0
        assert decode(target.read_text(), fmt) == gallery_graph("W5")
        assert main(["chromatic", str(target)]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_unknown_id(self, capsys):
        assert main(["gallery", "F13"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "k4.g6"
        assert main(["gallery", "K4", "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: cannot write {target}: ")


class TestHom:
    def test_none(self, tmp_path, capsys):
        p = write_graph(tmp_path, "p.g6", petersen())
        t = write_graph(tmp_path, "t.g6", cycle(5))
        assert main(["hom", p, t]) == 0
        assert capsys.readouterr().out == "NONE\n"

    def test_witness_is_printed_and_valid(self, tmp_path, capsys):
        p = write_graph(tmp_path, "p.g6", cycle(5))
        t = write_graph(tmp_path, "t.g6", complete(3))
        assert main(["hom", p, t]) == 0
        mapping = tuple(int(x) for x in capsys.readouterr().out.split())
        assert len(mapping) == 5
        from degstab import HomWitness

        assert HomWitness(mapping).is_valid(cycle(5), complete(3))


class TestQueries:
    def test_chromatic(self, tmp_path, capsys):
        f = write_graph(tmp_path, "g.g6", petersen())
        assert main(["chromatic", f]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_oddgirth(self, tmp_path, capsys):
        f = write_graph(tmp_path, "g.g6", cycle(6))
        assert main(["oddgirth", f]) == 0
        assert capsys.readouterr().out == "NONE\n"

    def test_format_override_and_extension(self, tmp_path, capsys):
        path = tmp_path / "graph.edges"
        path.write_text(encode(complete(4), "edge-list"))
        assert main(["chromatic", str(path)]) == 0
        assert capsys.readouterr().out == "4\n"
        odd = tmp_path / "odd.txt"
        odd.write_text(encode(cycle(7), "json"))
        assert main(["oddgirth", str(odd), "--format", "json"]) == 0
        assert capsys.readouterr().out == "7\n"
        assert main(["oddgirth", str(odd)]) == 2  # unknown extension


class TestDelta:
    def test_plain_output(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k4.g6", complete(4))
        assert main(["delta", f]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "5/8 (0.625) [gallery branch, j=2]"
        assert out[1].startswith("certificate: 1 passing witness,")

    def test_json_round_trip_revalidates(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k4.g6", complete(4))
        assert main(["delta", f, "--json"]) == 0
        result = DeltaResult.loads(capsys.readouterr().out)
        assert result.validate(complete(4))

    def test_bipartite_rejected(self, tmp_path, capsys):
        f = write_graph(tmp_path, "c4.g6", cycle(4))
        assert main(["delta", f]) == 2

    def test_deterministic(self, tmp_path, capsys):
        f = write_graph(tmp_path, "p.g6", petersen())
        assert main(["delta", f]) == 0
        first = capsys.readouterr().out
        assert main(["delta", f]) == 0
        assert capsys.readouterr().out == first


class TestWitnessAndCertify:
    def test_witness_output(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k3.g6", complete(3))
        out = tmp_path / "w.g6"
        assert main(["witness", f, "--n", "50", "--out", str(out)]) == 0
        witness = decode(out.read_text(), "graph6")
        assert witness.order == 50

    def test_witness_bytes_at_the_certified_order(self, tmp_path):
        for tag in ("W7", "H2plus"):
            h = gallery_graph(tag)
            f = write_graph(tmp_path, f"{tag}.g6", h)
            out = tmp_path / f"{tag}-w.g6"
            assert main(["witness", f, "--n", "200", "--out", str(out)]) == 0
            member = balanced_blow_up(witness_base(classify(h))[0], 200)
            assert out.read_text() == oracles.graph6(member) + "\n"

    def test_witness_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k3.g6", complete(3))
        out = tmp_path / "missing" / "w.g6"
        assert main(["witness", f, "--n", "40", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_certify_pass(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k4.g6", complete(4))
        assert main(["certify", f, "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_certify_rejects_small_n(self, tmp_path):
        f = write_graph(tmp_path, "k4.g6", complete(4))
        assert main(["certify", f, "--n", "7"]) == 2


class TestVerify:
    def test_odd_girth_suite(self, capsys):
        assert main(["verify", "odd-girth:2", "--corpus", "exhaustive:4"]) == 0
        out = capsys.readouterr()
        assert "PASS" in out.out
        assert "elapsed" in out.err

    def test_haggkvist_json(self, capsys):
        assert (
            main(["verify", "haggkvist:2", "--corpus", "random:50,8,0.5,7", "--json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["checked"] == 50 and data["violations"] == []

    def test_json_is_byte_identical_across_runs(self, capsys):
        args = ["verify", "odd-girth", "--corpus", "exhaustive:4", "--json"]
        outputs = []
        for _ in range(2):
            assert main(args) == 0
            out = capsys.readouterr()
            assert "elapsed" in out.err
            outputs.append(out.out)
        assert outputs[0] == outputs[1]

    def test_properties_suite(self, capsys):
        assert main(["verify", "properties:3"]) == 0

    def test_properties_reads_no_corpus(self, capsys):
        assert main(["verify", "properties:3", "--corpus", "exhaustive:2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "'properties:3'" in out.err and "--corpus" in out.err

    def test_corpus_defaults_to_exhaustive_5(self, capsys):
        assert main(["verify", "haggkvist", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 1100

    def test_violations_are_printed_and_exit_1(self, monkeypatch, capsys):
        # An odd girth of 99 for every graph makes K2 and K3, whose minimum
        # degrees exceed 2n/5, counterexamples.
        monkeypatch.setattr(verify, "odd_girth", lambda g: 99)
        assert main(["verify", "haggkvist", "--corpus", "exhaustive:3"]) == 1
        assert capsys.readouterr().out == (
            "suite haggkvist(g=2): checked 12\n"
            "VIOLATION [3] A_: min degree 1 of 2 but odd girth 99\n"
            "VIOLATION [11] Bw: min degree 2 of 3 but odd girth 99\n"
            "FAIL (2 violations)\n"
        )

    def test_local_bip_suite(self, capsys):
        assert main(["verify", "local-bip:1", "--corpus", "exhaustive:4"]) == 0

    def test_unknown_suite_and_bad_corpus(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert main(["verify", "odd-girth", "--corpus", "bogus:1"]) == 2
        assert main(["verify", "properties:x"]) == 2

    def test_haggkvist_takes_its_parameter_after_a_colon(self, capsys):
        assert main(["verify", "haggkvist:3", "--corpus", "exhaustive:4"]) == 0
        assert capsys.readouterr().out.startswith("suite haggkvist(g=3): checked 76\n")

    def test_odd_girth_takes_its_parameter_after_a_colon(self, capsys):
        assert main(["verify", "odd-girth:2", "--corpus", "exhaustive:4"]) == 0
        assert capsys.readouterr().out.startswith("suite odd-girth(g_max=2): checked 76\n")

    def test_parameters_default_as_documented(self, capsys):
        assert main(["verify", "odd-girth", "--corpus", "exhaustive:3"]) == 0
        assert main(["verify", "haggkvist", "--corpus", "exhaustive:3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "suite odd-girth(g_max=3): checked 12"
        assert out[2] == "suite haggkvist(g=2): checked 12"

    @pytest.mark.parametrize("args", [["odd-girth", "--g-max", "3"], ["haggkvist", "--g", "2"]])
    def test_parameter_flags_are_gone(self, args, capsys):
        assert main(["verify", *args]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("suite", ["odd-girth:", "haggkvist:x", "local-bip", "properties"])
    def test_bad_or_missing_parameter(self, suite, capsys):
        assert main(["verify", suite]) == 2
        err = capsys.readouterr().err
        assert err == f"error: suite {suite!r} needs an integer parameter\n"


class TestOracle:
    def test_edits(self, tmp_path, capsys):
        from degstab import Weighting, blow_up

        g = blow_up(Weighting(cycle(5), (2,) * 5))
        f = write_graph(tmp_path, "c52.g6", g)
        assert main(["oracle", "edits", f, "--k", "2"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_budget_exit_code(self, tmp_path, capsys):
        f = write_graph(tmp_path, "big.g6", empty_graph(30))
        assert main(["oracle", "edits", f, "--k", "2"]) == 3


class TestUsage:
    def test_no_args(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert main(["chromatic", "/nonexistent/g.g6"]) == 2

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("B")  # truncated body
        assert main(["chromatic", str(bad)]) == 2
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000)
        assert main(["chromatic", str(deep)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: invalid JSON: nested too deeply (at byte 0)"
