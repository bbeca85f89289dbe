from __future__ import annotations

import json
from pathlib import Path

import pytest

from kingkernel import Composition, Digraph, FormatError, build_digraph, compose
from kingkernel.fileformat import (
    composition_from_json,
    composition_to_json,
    digraph_from_json,
    digraph_to_json,
    format_composition,
    format_digraph,
    parse_any,
    parse_composition,
    parse_digraph,
    to_dot,
)
from kingkernel.cli import main
from kingkernel.gen import random_composition, unique_three_king_fixture
from kingkernel import GenSpec, Kind

DATA = Path(__file__).parent / "data"


def sample_composition() -> Composition:
    outer = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    factors = (
        build_digraph(2, [(0, 1), (1, 0)]),
        build_digraph(1, []),
        build_digraph(2, [(1, 0)]),
    )
    return compose(outer, factors)


class TestDigraphText:
    def test_two_cycle(self):
        d = parse_digraph("digraph 2\n0 1\n1 0\n")
        assert d == build_digraph(2, [(0, 1), (1, 0)])

    def test_round_trip(self):
        d = build_digraph(5, [(0, 4), (4, 2), (2, 0), (1, 3)])
        assert parse_digraph(format_digraph(d)) == d

    def test_comments_and_blank_lines_ignored(self):
        text = "# a digraph\ndigraph 2\n\n0 1  # forward\n"
        assert parse_digraph(text) == build_digraph(2, [(0, 1)])

    def test_loop_arc_cites_its_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_digraph("digraph 2\n0 0\n")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_digraph("graph 2\n0 1\n")

    def test_out_of_range_arc(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_digraph("digraph 2\n0 1\n0 7\n")

    def test_non_numeric_token(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_digraph("digraph 2\n0 x\n")

    def test_empty_input(self):
        with pytest.raises(FormatError):
            parse_digraph("")


class TestCompositionText:
    def test_round_trip(self):
        c = sample_composition()
        assert parse_composition(format_composition(c)) == c

    def test_missing_outer_block(self):
        with pytest.raises(FormatError, match="outer"):
            parse_composition("composition 2\nfactor 1 1\nfactor 2 1\n")

    def test_factor_blocks_must_ascend(self):
        text = "composition 2\nouter\n0 1\nfactor 2 1\nfactor 1 1\n"
        with pytest.raises(FormatError):
            parse_composition(text)

    def test_wrong_factor_count(self):
        text = "composition 3\nouter\n0 1\nfactor 1 1\nfactor 2 1\n"
        with pytest.raises(FormatError):
            parse_composition(text)

    def test_factor_arc_out_of_range(self):
        text = "composition 2\nouter\n0 1\nfactor 1 2\n0 5\nfactor 2 1\n"
        with pytest.raises(FormatError, match="line 5"):
            parse_composition(text)

    def test_golden_fixture_file(self):
        text = (DATA / "unique-three-king.cmp").read_text()
        assert parse_composition(text) == unique_three_king_fixture()


class TestJson:
    def test_digraph_round_trip(self):
        d = build_digraph(4, [(0, 1), (3, 2), (2, 0)])
        again = digraph_from_json(json.loads(json.dumps(digraph_to_json(d))))
        assert again == d

    def test_composition_round_trip(self):
        c = sample_composition()
        payload = json.loads(json.dumps(composition_to_json(c)))
        assert composition_from_json(payload) == c

    def test_type_errors_are_format_errors(self):
        with pytest.raises(FormatError):
            digraph_from_json({"n": "three", "arcs": []})
        with pytest.raises(FormatError):
            composition_from_json({"t": 2, "outer": {}, "factors": "nope"})

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "arcs": []}',
            '{"n": 2, "arcs": [[true, 0]]}',
            '{"n": 2, "arcs": [[1, false]]}',
            '{"outer": {"n": 2, "arcs": [[0, 1]]},'
            ' "factors": [{"n": true, "arcs": []}, {"n": 1, "arcs": []}]}',
        ],
    )
    def test_booleans_are_not_integers(self, text, tmp_path, capsys):
        with pytest.raises(FormatError, match="must be an integer|bad arc entry"):
            parse_any(text)
        path = tmp_path / "bool.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("t", ["2.0", "true"])
    def test_factor_count_must_be_an_integer(self, t, tmp_path, capsys):
        text = (
            f'{{"t": {t}, "outer": {{"n": 2, "arcs": [[0, 1]]}},'
            ' "factors": [{"n": 1, "arcs": []}, {"n": 1, "arcs": []}]}'
        )
        with pytest.raises(FormatError, match="'t' must be an integer"):
            parse_any(text)
        path = tmp_path / "t.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == ""


class TestParseAny:
    def test_text_digraph(self):
        assert isinstance(parse_any("digraph 1\n"), Digraph)

    def test_text_composition(self):
        assert isinstance(parse_any(format_composition(sample_composition())), Composition)

    def test_json_digraph(self):
        payload = json.dumps(digraph_to_json(build_digraph(2, [(0, 1)])))
        assert isinstance(parse_any(payload), Digraph)

    def test_json_composition(self):
        payload = json.dumps(composition_to_json(sample_composition()))
        assert isinstance(parse_any(payload), Composition)

    def test_unknown_leading_keyword(self):
        with pytest.raises(FormatError):
            parse_any("tournament 3\n")

    def test_round_trips_generated_instances(self):
        for seed in range(6):
            spec = GenSpec(
                seed=seed, kind=Kind.COMPOSITION, t=3, size_min=1, size_max=3
            )
            c = random_composition(spec)
            assert parse_composition(format_composition(c)) == c
            assert composition_from_json(composition_to_json(c)) == c


class TestDot:
    def test_digraph_arrows(self):
        out = to_dot(build_digraph(2, [(0, 1)]))
        assert out.startswith("digraph")
        assert "0 -> 1" in out

    def test_composition_gets_factor_clusters(self):
        out = to_dot(sample_composition())
        assert "cluster" in out
        assert out.count("subgraph") == 3
