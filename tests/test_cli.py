import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpforge
from fpforge import cli, sigma
from fpforge.cli import build_parser, main
from fpforge.complex_core import (
    GroupPresentationInput, SimplicialComplex, barycentric_subdivision, flagify_presentation_complex, spanning_tree,
)
from fpforge.covers import VoltageAssignment, double_cover_voltages, dump_voltage
from fpforge.groups import LoopWord, presentation_to_json, tagged_family_presentation
from fpforge.homology import load_summary
from fpforge.sigma import (
    choose_constants,
    dump_registry,
    dump_sigma_spec,
    example_registry,
    sigma_field_example,
    sigma_power_tower,
)

from helpers import RP2_FACETS


SRC = os.path.dirname(os.path.dirname(os.path.abspath(fpforge.__file__)))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# A registry entry whose voltage lacks its "degree".
BAD_VOLTAGE_ENTRY = {
    "id": "c",
    "kind": "constructed",
    "degree": 2,
    "certified_up_to": "all",
    "quotient_is_finite": True,
    "voltage": {"base": {"facets": [[0, 1]]}},
}


@pytest.fixture
def delta2(tmp_path):
    return write(tmp_path / "delta2.json", json.dumps({"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}))


class TestDouble:
    def test_octahedron_report(self, tmp_path, delta2, capsys):
        out = tmp_path / "double.json"
        rep = tmp_path / "report.json"
        assert main(["double", "--complex", delta2, "--out", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["double_f_vector"] == [6, 12, 8]
        loaded = SimplicialComplex.from_json_dict(json.loads(out.read_text()))
        assert loaded.f_vector() == (6, 12, 8)

    def test_output_is_the_stdlib_indented_text(self, tmp_path):
        K = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
        cpath = write(tmp_path / "k.json", json.dumps(K.to_json_dict()))
        out = tmp_path / "double.json"
        assert main(["double", "--complex", cpath, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_deterministic_output(self, tmp_path, delta2):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["double", "--complex", delta2, "--out", str(out1)])
        main(["double", "--complex", delta2, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCover:
    def test_build_verify_certify(self, tmp_path):
        base = SimplicialComplex.from_facets([[i, (i + 1) % 4] for i in range(4)])
        nontree = [e for e in base.edges() if e not in spanning_tree(base)]
        voltage = VoltageAssignment(base, 2, {nontree[0]: (1, 0)})
        vpath = write(tmp_path / "v.json", dump_voltage(voltage))
        out = tmp_path / "total.json"
        cert = tmp_path / "cert.json"
        code = main(["cover", "--voltage", vpath, "--out", str(out), "--certificate", str(cert), "--ring", "Z"])
        assert code == 0
        report = json.loads(cert.read_text())
        assert report["degree"] == 2 and report["verified_covering"] is True
        assert report["total_f_vector"] == [8, 8]

    def test_the_total_f_vector_is_counted_once(self, tmp_path, monkeypatch, capsys):
        base = SimplicialComplex.from_facets([[i, (i + 1) % 4] for i in range(4)])
        vpath = write(tmp_path / "v.json", dump_voltage(VoltageAssignment(base, 2, {(2, 3): (1, 0)})))
        cert = tmp_path / "cert.json"
        counted = []
        real = SimplicialComplex.f_vector
        monkeypatch.setattr(SimplicialComplex, "f_vector", lambda self: counted.append(len(self.vertices)) or real(self))
        assert main(["cover", "--voltage", vpath, "--certificate", str(cert)]) == 0
        assert counted.count(8) == 1
        assert json.loads(cert.read_text())["total_f_vector"] == [8, 8]
        assert "total f-vector (8, 8)" in capsys.readouterr().out

    @pytest.mark.parametrize("ring", ["F4", "Fx"])
    def test_bad_ring_writes_nothing(self, tmp_path, capsys, ring):
        base = SimplicialComplex.from_facets([[i, (i + 1) % 4] for i in range(4)])
        vpath = write(tmp_path / "v.json", dump_voltage(VoltageAssignment(base, 2, {(2, 3): (1, 0)})))
        out = tmp_path / "total.json"
        cert = tmp_path / "cert.json"
        argv = ["cover", "--voltage", vpath, "--out", str(out), "--certificate", str(cert)]
        assert main(argv + ["--ring", "Z", "--ring", ring]) == 1
        assert not out.exists() and not cert.exists()
        assert "cover:" not in capsys.readouterr().out


class TestHomology:
    def test_projective_plane_certificate(self, tmp_path):
        K = barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS))
        cpath = write(tmp_path / "k.json", json.dumps(K.to_json_dict()))
        out = tmp_path / "cert.json"
        assert main(["homology", "--complex", cpath, "--ring", "Z", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["ring"] == "Z"
        by_degree = {d["degree"]: d for d in cert["degrees"]}
        assert by_degree[1]["torsion"] == [2] and by_degree[1]["rank"] == 0

    def test_field_summary_file_reads_back_as_printed(self, tmp_path, capsys):
        K = flagify_presentation_complex(GroupPresentationInput(1, [[1, 1, 1]]))  # H~1 = Z/3
        cpath = write(tmp_path / "k.json", json.dumps(K.to_json_dict()))
        out = tmp_path / "f3.json"
        assert main(["homology", "--complex", cpath, "--ring", "F3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed == str(load_summary(str(out))) + "\n" == "[F3] H~1: rank 1; H~2: rank 1\n"

    @pytest.mark.parametrize("ring", ["Z", "Q", "F3"])
    @pytest.mark.parametrize("space", ["sd2_rp2", "flag_a2", "flag_ab"])
    def test_benchmark_ladder_spaces(self, tmp_path, space, ring):
        if space == "sd2_rp2":
            K = barycentric_subdivision(barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS)))
        elif space == "flag_a2":
            K = flagify_presentation_complex(GroupPresentationInput(1, [[1, 1]]))
        else:
            K = flagify_presentation_complex(GroupPresentationInput(2, [[1, 2, -1, -2]]))
        cpath = write(tmp_path / "k.json", json.dumps(K.to_json_dict()))
        out = tmp_path / "cert.json"
        assert main(["homology", "--complex", cpath, "--ring", ring, "--out", str(out)]) == 0
        degrees = json.loads(out.read_text())["degrees"]
        torus = space == "flag_ab"
        assert [d["rank"] for d in degrees] == ([0, 2, 1] if torus else [0, 0, 0])
        assert [d["torsion"] for d in degrees] == ([[], [2], []] if ring == "Z" and not torus else [[], [], []])


class TestPresent:
    def test_triangle_presentation_files(self, tmp_path, delta2, capsys):
        out = tmp_path / "pres.txt"
        jout = tmp_path / "pres.json"
        assert main(["present", "--complex", delta2, "--out", str(out), "--json", str(jout)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "gen e0_1 e0_2 e1_2"
        assert len([l for l in text.splitlines() if l.startswith("rel")]) == 2
        data = json.loads(jout.read_text())
        assert len(data["relators"]) == 2
        captured = capsys.readouterr()
        assert "3 generators, 2 relators" in captured.out
        assert "Z^2" in captured.out

    def test_spread_file(self, tmp_path, delta2):
        spath = write(
            tmp_path / "spreads.json",
            json.dumps({"spreads": [{"height": 2, "loops": [[0, 1, 2, 0]]}]}),
        )
        jout = tmp_path / "pres.json"
        assert main(["present", "--complex", delta2, "--spreads", spath, "--json", str(jout)]) == 0
        data = json.loads(jout.read_text())
        assert len(data["relators"]) == 3
        spread = data["relators"][-1]
        assert spread["tag"]["family"] == "spread" and spread["tag"]["height"] == 2


class TestDecide:
    def test_field_example_verdicts(self, tmp_path, capsys):
        spec_path = tmp_path / "field.json"
        assert main(["sigma", "--builder", "field-example", "--out", str(spec_path)]) == 0
        out = tmp_path / "verdict.json"
        assert main(["decide", "--sigma", str(spec_path), "--ring", "F5", "--k", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "YES"
        assert main(["decide", "--sigma", str(spec_path), "--ring", "Z", "--k", "2", "--out", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "NO" and verdict["witness_degree"] == 1

    def test_torsion_recurrent_spec_says_no_with_witness(self, tmp_path):
        from fpforge.sigma import SigmaSpec, Tail, declared_entry, dump_sigma_spec

        registry = example_registry()
        registry["T5"] = declared_entry(
            "T5",
            degree=25,
            ranks=(0, 0),
            torsion=((), (5,)),
            certified_up_to=2,
            simply_connected=False,
            quotient_is_finite=True,
            note="stand-in cover with five-torsion first homology",
        )
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("T5"),
            negative_tail=Tail.constant("Luniv"),
        )
        spath = write(tmp_path / "t5.json", dump_sigma_spec(spec))
        out = tmp_path / "verdict.json"
        assert main(["decide", "--sigma", spath, "--ring", "F5", "--k", "2", "--out", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "NO"
        assert verdict["witness_entry"] == "T5" and verdict["witness_degree"] == 1

    @pytest.mark.parametrize("degree", [{"rank": -3}, {"torsion": [0, 4, 6, -1]}])
    def test_registry_with_impossible_homology_is_domain_error(self, tmp_path, capsys, degree):
        spec_path = tmp_path / "field.json"
        assert main(["sigma", "--builder", "field-example", "--out", str(spec_path)]) == 0
        spec = json.loads(spec_path.read_text())
        spec["registry"]["entries"][0]["homology"][0]["degrees"][1].update(degree)
        bad = write(tmp_path / "bad.json", json.dumps(spec))
        capsys.readouterr()
        assert main(["decide", "--sigma", bad, "--ring", "Z", "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fpforge: degree 1: ") and "Traceback" not in err

    def test_finitely_presented_flag(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        main(["sigma", "--builder", "prime-set", "--primes", "2,3", "--out", str(spec_path)])
        out = tmp_path / "v.json"
        assert main(["decide", "--sigma", str(spec_path), "--finitely-presented", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "NO"


def sphere_entry_spec():
    """A spec whose only entry is constructed: the orientation cover of sd RP^2, a 2-sphere, at every height."""
    (voltage,) = double_cover_voltages(barycentric_subdivision(SimplicialComplex.from_facets(RP2_FACETS)))
    registry = {"S": sigma.constructed_entry("S", voltage)}
    tail = sigma.Tail.constant("S")
    spec = sigma.SigmaSpec(registry, "S", positive_tail=tail, negative_tail=tail)
    return json.loads(dump_sigma_spec(spec))


class TestDecideChecksConstructedEntries:
    def test_edited_sphere_homology_is_refused(self, tmp_path, capsys):
        data = sphere_entry_spec()
        honest = write(tmp_path / "honest.json", json.dumps(data))
        assert main(["decide", "--sigma", honest, "--ring", "Q", "--k", "3"]) == 0
        assert capsys.readouterr().out == "FP_3(Q): NO (entry S, degree 2)\n"
        data["registry"]["entries"][0]["homology"][0]["degrees"][2]["rank"] = 0  # H~2 of the sphere: 1 -> 0
        edited = write(tmp_path / "edited.json", json.dumps(data))
        out = tmp_path / "verdict.json"
        assert main(["decide", "--sigma", edited, "--ring", "Q", "--k", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "fpforge: constructed entries fail their recomputation: "
            "S: stored integral certificate disagrees with recomputation\n"
        )

    def test_edited_simple_connectivity_is_refused(self, tmp_path, capsys):
        data = sphere_entry_spec()
        honest = write(tmp_path / "honest.json", json.dumps(data))
        assert main(["decide", "--sigma", honest, "--finitely-presented"]) == 0
        assert capsys.readouterr().out == "finitely presented: YES\n"
        data["registry"]["entries"][0]["simply_connected"] = False
        edited = write(tmp_path / "edited.json", json.dumps(data))
        assert main(["decide", "--sigma", edited, "--finitely-presented"]) == 1
        assert capsys.readouterr().err == (
            "fpforge: constructed entries fail their recomputation: "
            "S: stored simple connectivity disagrees with recomputation\n"
        )

    def test_only_referenced_entries_are_checked(self, tmp_path, capsys):
        data = sphere_entry_spec()
        unused = copy.deepcopy(data["registry"]["entries"][0])
        unused["id"] = "U"
        unused["degree"] = 3
        data["registry"]["entries"].append(unused)
        spec = write(tmp_path / "spec.json", json.dumps(data))
        assert main(["decide", "--sigma", spec, "--ring", "Q", "--k", "3"]) == 0
        assert capsys.readouterr().out == "FP_3(Q): NO (entry S, degree 2)\n"
        data["exceptions"] = [[5, "U"]]
        spec = write(tmp_path / "spec.json", json.dumps(data))
        assert main(["decide", "--sigma", spec, "--ring", "Q", "--k", "3"]) == 1
        assert capsys.readouterr().err == (
            "fpforge: constructed entries fail their recomputation: U: stored degree disagrees with voltage degree\n"
        )


class TestSigmaBuilders:
    def test_prime_set_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        assert main(["sigma", "--builder", "prime-set", "--primes", "2,3", "--out", str(spec_path)]) == 0
        from fpforge.sigma import load_sigma_spec

        spec = load_sigma_spec(spec_path)
        assert spec.value(1) == "L" and spec.value(2) == "Lp3"

    def test_constants_builder(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["sigma", "--builder", "constants", "--d", "2", "--m", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["constants"] == [4, 5, 6]

    def test_power_tower_builder(self, tmp_path):
        out = tmp_path / "tower.json"
        code = main(
            ["sigma", "--builder", "power-tower", "--f-set", "1", "--primes", "3", "--m", "2", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["power_rule"]["constants"] == [4, 5]

    def test_power_tower_at_m_31_computes_no_tower_height(self, tmp_path, monkeypatch, capsys):
        # C_31^(2^31) has billions of digits; building and deciding read only ids and constants.
        def refuse(C, i):
            raise RuntimeError("a tower height was computed")

        monkeypatch.setattr(sigma, "_tower_height", refuse)
        spec = str(tmp_path / "tower.json")
        argv = ["sigma", "--builder", "power-tower", "--f-set", "1,2", "--primes", "3", "--m", "31", "--out", spec]
        assert main(argv) == 0
        assert main(["decide", "--sigma", spec, "--ring", "Q", "--k", "2"]) == 0
        assert main(["decide", "--sigma", spec, "--finitely-presented"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["FP_2(Q): YES", "finitely presented: NO (entry Lp3)"]

    def test_external_registry(self, tmp_path):
        reg_path = write(tmp_path / "reg.json", dump_registry(example_registry()))
        out = tmp_path / "spec.json"
        assert main(["sigma", "--builder", "field-example", "--registry", reg_path, "--out", str(out)]) == 0


class TestSpectrum:
    def test_c5_report(self, tmp_path):
        gpath = write(
            tmp_path / "c5.json",
            json.dumps({"vertices": list(range(5)), "edges": [[i, (i + 1) % 5] for i in range(5)]}),
        )
        out = tmp_path / "report.json"
        assert main(["spectrum", "--graph", gpath, "--lmax", "10", "--budget", "100000", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["spectrum"] == [5]
        assert report["statuses"]["5"]["status"] == "taut"

    def test_deterministic(self, tmp_path):
        gpath = write(
            tmp_path / "c5.json",
            json.dumps({"vertices": list(range(5)), "edges": [[i, (i + 1) % 5] for i in range(5)]}),
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["spectrum", "--graph", gpath, "--lmax", "8", "--out", str(a)])
        main(["spectrum", "--graph", gpath, "--lmax", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_wedge_of_3_4_and_15_cycles_has_no_unknown_at_budget_1(self, tmp_path, capsys):
        # the console-script probe of the tier-1 workflow, run through main
        ring = lambda vs: [[vs[i - 1], v] for i, v in enumerate(vs)]
        edges = ring([0, 1, 2]) + ring([0, 3, 4, 5]) + ring([0, *range(6, 20)])
        gpath = write(tmp_path / "wedge.json", json.dumps({"edges": edges}))
        out = tmp_path / "report.json"
        assert main(["spectrum", "--graph", gpath, "--lmax", "12", "--budget", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "spectrum: taut lengths [3, 4]\n"
        assert "unknown" not in out.read_text(encoding="utf-8")

    def test_help_says_what_the_budget_bounds(self):
        code, out, _ = _outcome(main, ["spectrum", "-h"])
        text = " ".join(out.split())
        assert code == 0
        assert "--lmax LMAX longest loop length to decide" in text
        assert "coset rows per level" in text and "max(budget // 10, 100) derivation-search nodes per candidate" in text


class TestSubpres:
    def test_selection_pipeline(self, tmp_path):
        K = SimplicialComplex.from_facets([[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 3]])
        alphas = [LoopWord.from_vertices(K, [0, 1, 2, 0])]
        betas = [LoopWord.from_vertices(K, [0, 1, 3, 0])]
        full = tagged_family_presentation(K, {"alpha": alphas, "beta": betas}, (-2, 2))
        ppath = write(tmp_path / "full.json", presentation_to_json(full))
        beta_idx = next(i for i, t in enumerate(full.tags) if t.family == "beta" and t.height == 2)
        out = tmp_path / "sub.json"
        sigma_out = tmp_path / "sigma.json"
        code = main(
            [
                "subpres",
                "--presentation",
                ppath,
                "--retain",
                str(beta_idx),
                "--out",
                str(out),
                "--sigma-out",
                str(sigma_out),
            ]
        )
        assert code == 0
        sub = json.loads(out.read_text())
        beta_heights = {
            r["tag"]["height"] for r in sub["relators"] if r["tag"]["family"] == "beta"
        }
        assert beta_heights == {2}
        from fpforge.sigma import load_sigma_spec

        spec = load_sigma_spec(sigma_out)
        assert spec.value(2) == "L" and spec.value(1) == "Lsl"


class TestExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        assert main(["homology", "--complex", "/nonexistent.json", "--ring", "Z"]) == 2

    def test_domain_error(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", json.dumps({"vertices": [0], "facets": [[0]]}))
        assert main(["homology", "--complex", bad, "--ring", "F6"]) == 1

    def test_success(self, tmp_path, delta2):
        assert main(["homology", "--complex", delta2, "--ring", "Q"]) == 0

    def test_non_canonical_ring_is_a_domain_error(self, delta2, capsys):
        assert main(["homology", "--complex", delta2, "--ring", "F 3"]) == 1
        assert "cannot parse ring 'F 3'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, payload, path",
        [
            (["homology", "--ring", "Z", "--complex"], {"facets": 5}, "$.facets"),
            (["homology", "--ring", "Z", "--complex"], [[0, 1, 2]], "$"),
            (["cover", "--voltage"], {"base": {"facets": [[0, 1]]}}, "$.degree"),
            (
                ["sigma", "--builder", "field-example", "--registry"],
                {"entries": [BAD_VOLTAGE_ENTRY]},
                "$.entries[0].voltage.degree",
            ),
            (
                ["decide", "--ring", "Z", "--k", "2", "--sigma"],
                {"registry": {"entries": [BAD_VOLTAGE_ENTRY]}, "base_id": "c"},
                "$.registry.entries[0].voltage.degree",
            ),
            (["spectrum", "--lmax", "3", "--graph"], [[0, 1]], "$"),
            (["spectrum", "--lmax", "3", "--graph"], {"edges": 5}, "$.edges"),
            (
                ["present", "--complex", "{delta2}", "--spreads"],
                {"spreads": [{"loops": [[0, 1, 2, 0]]}]},
                "$.spreads[0].height",
            ),
            (["sigma", "--builder", "field-example", "--registry"], {}, "$.entries"),
            (["subpres", "--presentation"], [], "$"),
            (
                ["sigma", "--builder", "field-example", "--registry"],
                {"entries": [dict(BAD_VOLTAGE_ENTRY, voltage=None, homology=[{"ring": "Z", "degrees": 5}])]},
                "$.entries[0].homology[0].degrees",
            ),
            (["decide", "--finitely-presented", "--sigma"], {"registry": {"entries": []}, "base_id": 3}, "$.base_id"),
            (
                ["decide", "--finitely-presented", "--sigma"],
                {"registry": {"entries": []}, "base_id": "L", "exceptions": [[1]]},
                "$.exceptions[0]",
            ),
            (["subpres", "--presentation"], {"generators": ["a"], "relators": [{"letters": ["a"]}]}, "$.relators[0].letters[0]"),
            (["subpres", "--presentation"], {"relators": []}, "$.generators"),
        ],
    )
    def test_malformed_json_is_format_error(self, tmp_path, capsys, delta2, argv, payload, path):
        bad = write(tmp_path / "bad.json", json.dumps(payload))
        assert main([a.format(delta2=delta2) for a in argv] + [bad]) == 2
        assert f"fpforge: format error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "--ring", "Z", "--complex"],
            ["cover", "--voltage"],
            ["spectrum", "--lmax", "3", "--graph"],
            ["present", "--complex", "{delta2}", "--spreads"],
            ["decide", "--finitely-presented", "--sigma"],
            ["sigma", "--builder", "field-example", "--registry"],
            ["subpres", "--presentation"],
        ],
        ids=lambda argv: argv[-1],
    )
    @pytest.mark.parametrize(
        "text",
        [b"[" * 200_000, b"\xff{}", b"[" + b"7" * 5000 + b"]"],
        ids=["nested-200000-deep", "byte-0xff", "5000-digit-integer"],
    )
    def test_malformed_text_is_one_format_error_line(self, tmp_path, capsys, delta2, argv, text):
        """Nesting past the recursion limit, text that is not UTF-8 and an integer past the digit limit."""
        if b"7" * 5000 in text and not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            pytest.skip("this interpreter reads a 5000-digit integer literal")
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main([a.format(delta2=delta2) for a in argv] + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fpforge: format error: ") and captured.err.count("\n") == 1


def _outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which may return a code or exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["double", "cover", "homology", "present", "decide", "sigma", "spectrum", "subpres"])
def test_second_main_call_answers_as_the_first_and_a_fresh_parser(command):
    """Help, a missing required flag and an unknown command: same text and exit code."""
    cli._parser.cache_clear()
    for argv, code in (([command, "-h"], 0), ([command], 2), (["-h", command], 0), ([command + "x", "-h"], 2)):
        first = _outcome(main, argv)
        assert _outcome(main, argv) == first == _outcome(build_parser().parse_args, argv)
        assert first[0] == code


def test_valid_run_is_the_same_on_a_second_main_call(tmp_path, delta2):
    cli._parser.cache_clear()
    argv = ["homology", "--complex", delta2, "--ring", "Z", "--out", str(tmp_path / "h.json")]
    first = _outcome(main, argv), (tmp_path / "h.json").read_text(encoding="utf-8")
    assert (_outcome(main, argv), (tmp_path / "h.json").read_text(encoding="utf-8")) == first
    assert first[0][0] == 0 and cli._parser().parse_args(argv) == build_parser().parse_args(argv)


def test_main_builds_its_parser_once_per_process(monkeypatch, delta2):
    argv = ["homology", "--complex", delta2, "--ring", "Q"]
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    cli._parser.cache_clear()
    assert _outcome(main, argv)[0] == 0 and len(built) == 9  # the top-level parser and eight subcommands
    built.clear()
    assert _outcome(main, argv)[0] == 0 and built == []
    assert cli._parser() is cli._parser() is not build_parser()


def _python(*args, timeout=120):
    """A fresh interpreter on ``args`` that imports this checkout's ``fpforge``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or real(self, *a, **k)\n"
        "import fpforge.cli\n"
        "print(len(built))\n"
    )
    run = _python("-c", script)
    assert (run.returncode, run.stdout) == (0, "0\n")


def test_entry_point_in_a_fresh_process(tmp_path, delta2):
    """``python -m fpforge.cli`` parses ``sys.argv`` and leaves through ``sys.exit`` with the documented codes."""
    helped = _python("-m", "fpforge.cli", "--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: fpforge")
    valid = _python("-m", "fpforge.cli", "homology", "--complex", delta2, "--ring", "Z")
    assert (valid.returncode, valid.stdout, valid.stderr) == (0, "[Z] trivial\n", "")
    domain = _python("-m", "fpforge.cli", "homology", "--complex", delta2, "--ring", "F6")
    assert domain.returncode == 1 and domain.stderr.startswith("fpforge: ")
    malformed = _python("-m", "fpforge.cli", "homology", "--complex", write(tmp_path / "bad.json", "{"), "--ring", "Z")
    assert malformed.returncode == 2 and malformed.stderr.startswith("fpforge: i/o error: ")


@pytest.mark.parametrize("command", ["homology", "double", "present"])
def test_a_40_vertex_facet_is_refused_in_bounded_memory(tmp_path, command):
    """Its closure would hold 2^40 - 1 simplices: refused with exit code 1 before anything is closed."""
    path = write(tmp_path / "big.json", json.dumps({"vertices": [], "facets": [list(range(40))]}))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from fpforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    ring = ["--ring", "Z"] if command == "homology" else []
    run = _python("-c", script, command, "--complex", path, *ring, timeout=20)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        "fpforge: facets may close to 1099511627775 simplices (the sum of 2^|facet| - 1), "
        "over the closure cap of 16777216 (2^24)\n"
    )


@pytest.mark.parametrize("height", [10**12, 349_525])
def test_spreads_over_the_cap_are_refused_in_bounded_memory(tmp_path, delta2, height):
    """3 * 10^12 letters are refused with exit code 1 before any word is built; 3 * 349 525 = 1 048 575 letters,
    just under the cap of 2^20, are built and written inside the same 256 MiB."""
    spreads = write(tmp_path / "spreads.json", json.dumps({"spreads": [{"height": height, "loops": [[0, 1, 2, 0]]}]}))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from fpforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out, jout = tmp_path / "pres.txt", tmp_path / "pres.json"
    argv = ["present", "--complex", delta2, "--spreads", spreads, "--out", str(out), "--json", str(jout)]
    run = _python("-c", script, *argv, timeout=60)
    if height > 1 << 20:
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == (
            "fpforge: spread relators would hold 3000000000000 letters (the sum of |height| * len(loop)), "
            "over the spread cap of 1048576 (2^20)\n"
        )
        assert not out.exists() and not jout.exists()
    else:
        summary = "present: 3 generators, 3 relators, abelianization Z^2\n"
        assert (run.returncode, run.stdout, run.stderr) == (0, summary, "")
        assert len(json.loads(jout.read_text())["relators"][-1]["letters"]) == 3 * height


def test_a_cover_degree_over_the_cap_is_refused_in_bounded_memory(tmp_path):
    """A 65-byte voltage file of degree 10^11 over one triangle: exit code 1 and one line, before any permutation."""
    voltage = write(tmp_path / "degree.json", '{"base": {"facets": [[0,1,2]]}, "degree": 100000000000, "voltages": []}')
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from fpforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run = _python("-c", script, "cover", "--voltage", voltage, "--ring", "Z", timeout=20)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        "fpforge: the cover would hold 700000000000 simplices (degree times 7 base simplices), "
        "over the closure cap of 16777216 (2^24)\n"
    )


def test_running_out_of_memory_is_one_line(tmp_path):
    """A degree-10^5 cover of one triangle is under the closure cap but not inside 256 MiB: exit code 1, one line."""
    voltage = write(tmp_path / "degree.json", '{"base": {"facets": [[0,1,2]]}, "degree": 100000, "voltages": []}')
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from fpforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run = _python("-c", script, "cover", "--voltage", voltage, "--ring", "Z", timeout=60)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "fpforge: out of memory (the size caps count simplices and letters, not bytes)\n"


def test_cover_help_names_the_degree_cap(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cover", "--help"])
    assert "a degree whose cover would hold more than 16777216 simplices" in " ".join(capsys.readouterr().out.split())


def test_present_help_names_the_spread_cap(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["present", "--help"])
    assert "more than 1048576 letters" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["double", "cover", "homology", "present"])
def test_help_names_the_closure_cap(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert "16777216" in " ".join(capsys.readouterr().out.split())


def _fuzz_documents():
    """Valid input files for each loading subcommand: (argv without the file, JSON document)."""
    base = SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2]])
    voltage = VoltageAssignment(base, 2, {(1, 2): (1, 0)})
    registry = example_registry()
    registry_doc = json.loads(dump_registry(registry))
    registry_doc["entries"].append(dict(BAD_VOLTAGE_ENTRY, id="c", voltage=json.loads(dump_voltage(voltage))))
    spec = sigma_field_example(registry, member_ids={3: "Lp3", 5: "Lp5", 7: "Lp7"})
    tower = sigma_power_tower([1], choose_constants(2, None, 3), registry, [3], member_ids={3: "Lp3"})
    tetra = SimplicialComplex.from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    tagged = tagged_family_presentation(tetra, {"alpha": [[0, 1, 2, 0]], "beta": [[0, 1, 3, 0]]}, (-1, 1))
    return [
        (["sigma", "--builder", "field-example", "--registry"], registry_doc),
        (["decide", "--ring", "Z", "--k", "2", "--sigma"], json.loads(dump_sigma_spec(spec))),
        (["decide", "--finitely-presented", "--sigma"], json.loads(dump_sigma_spec(tower))),
        (["subpres", "--presentation"], json.loads(presentation_to_json(tagged))),
        (["spectrum", "--lmax", "4", "--budget", "200", "--graph"], {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}),
        (["cover", "--voltage"], json.loads(dump_voltage(voltage))),
        (["homology", "--ring", "Z", "--complex"], {"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}),
    ]


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


FUZZ_DOCUMENTS = _fuzz_documents()
FUZZ_SITES = [(i, path) for i, (_, doc) in enumerate(FUZZ_DOCUMENTS) for path in _json_paths(doc)]
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.floats(-2, 2), st.sampled_from(["Z", "L", "all", "a"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "degree", "constant"]), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(site=st.sampled_from(FUZZ_SITES), value=JSON_VALUES, delete=st.booleans())
def test_any_damaged_input_keeps_the_documented_exit_codes(tmp_path_factory, site, value, delete):
    """Replace (or delete) one node of a valid input file: the CLI exits 0, 1 or 2, never with a traceback."""
    i, path = site
    argv, doc = FUZZ_DOCUMENTS[i]
    doc = copy.deepcopy(doc)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    f = write(tmp_path_factory.mktemp("fuzz") / "in.json", json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + [f]) in (0, 1, 2)


def _console_script_step() -> str:
    """The ``run:`` block of the "Installed console script" step of the Tier-1 workflow, dedented."""
    workflow = os.path.join(os.path.dirname(SRC), ".github", "workflows", "tier1.yml")
    with open(workflow, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("      - name: Installed console script")
    assert lines[start + 1] == "        run: |"
    block = []
    for line in lines[start + 2 :]:
        if line.strip() and not line.startswith("          "):
            break
        block.append(line[10:])
    return "\n".join(block) + "\n"


def test_the_ci_console_script_step_passes(tmp_path):
    """The CI step runs as Actions runs it (bash -e, with pipefail), but without its ``pip install .`` line:
    a two-line ``fpforge`` shim on PATH stands in for the installed console script, so the test installs nothing."""
    if shutil.which("bash") is None:
        pytest.skip("bash is missing, and the CI step is a bash script")
    step = _console_script_step()
    script = step.replace("python -m pip install .\n", "", 1)
    assert step.count("pip install") == 1 and "pip install" not in script
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "fpforge"
    shim.write_text('#!/bin/sh\nexec python -m fpforge.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    (tmp_path / "step.sh").write_text(script, encoding="utf-8")
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
        RUNNER_TEMP=str(tmp_path),
    )
    run = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(tmp_path / "step.sh")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
