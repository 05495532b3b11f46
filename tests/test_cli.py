"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import theta_disk
from theta_disk import cli
from theta_disk.cli import _PARSERS, FUNCTORS, main
from theta_disk.disk import phi_inverse_obj, trivial_disk
from theta_disk.forest import POINT_TREE, LevelTree
from theta_disk.globular import (
    ARROW_CARDINAL,
    POINT_CARDINAL,
    enumerate_glob_morphisms,
)
from theta_disk.itree import INTERVAL, ORDINAL, enumerate_objects, trivial_obj, wedge
from theta_disk.labeled import (
    LabeledTree,
    enumerate_cropped_trees,
    enumerate_labeled_mors,
    trivial_labeled,
    xi_inverse,
)
from theta_disk.ograph import OGraph, POINT_OGRAPH, enumerate_ographs, gamma_prime
from theta_disk.omega import EnrichedCell, enumerate_cells, psi_obj
from theta_disk.ordinal import OrdMap, Ordinal
from theta_disk.verify import CHECKS, Bounds, Report

from tests.test_itree import wide_ordinal_tree


ARROW_OGRAPH = OGraph(2, (POINT_OGRAPH,))
# The cropped interval tree of one root over two leaves.
TWO_LEAVES = LabeledTree(INTERVAL, LevelTree((1, 2), ((0, 0),)))
TINY = "height=1,label=1,vertices=2,dim=1"
WIDE_HEIGHT = "height=4,label=3"
WIDE_LABEL = "height=3,label=4"
# SHA-256 of ``theta-disk enumerate --kind KIND --bounds BOUNDS`` stdout.
ENUMERATE_SHA256 = {
    ("ordinal", ""): "e8505877f6b74e77ceaaeb5b4b69e16520668044a6b9e75c246b9824752dd7aa",
    ("disk", ""): "b87dfa8ff0b32d71273aa1425263554b271eda694b60157709b374c2f15e0819",
    ("itree-interval", ""): (
        "e68d23c760136d74e8d08aad9fcee98071586da754d524d8802f509463ca2559"
    ),
    ("itree-ordinal", ""): (
        "564aa0142b8802452a6381ba313bac81474be85d9868eae7cf0e220c96770ed2"
    ),
    ("globcard", ""): "56273ea1d73541fa9ee3a96a325eb0a82d458ef5c7f00e4b80dd74ac5e0825e5",
    ("ograph", ""): "0b84e103e7efde03e1141910b001d205a4a200a93c4239191da64e332d44c6af",
    ("cropped-interval", ""): (
        "73b83ee5b44f0857c1617cbebd4df73956b9f63796c5dea7ada6dca904819d39"
    ),
    ("cropped-ordinal", ""): (
        "51d7651aa1c66d073ca532e0c4a0dd04d2c4f26c8fe22bc9c67419507b696a90"
    ),
    ("ordinal", TINY): "4c382ee7524b8c7fc8df642d1f5989dd81296303630dd63aa4af6af3dbd1d9a1",
    ("disk", TINY): "551b9955dfad5fbf50a91e846dbf1f0fcd65d96222d2431df9473667ced19078",
    ("itree-interval", TINY): (
        "e5e66aeae1930c95302243ebc90cb11c6eea8795194625f3fb48037bc143ff3a"
    ),
    ("itree-ordinal", TINY): (
        "bee285f75f47649e203c22aa51acacc7441478a69eec2d60fdf52349098f9007"
    ),
    ("globcard", TINY): "bb5610071cf51888543963ce8e43cdb359fa01b0a156c26f14f6066b6c671f05",
    ("ograph", TINY): "151a8343a41c94a62bbfb86615434c5042827dfc247ecaee14d216bc1c29fd89",
    ("cropped-interval", TINY): (
        "fddc2cb14f5e770f2fadd861bc0d485c940751a6dbd03a89bbc23564794d0470"
    ),
    ("cropped-ordinal", TINY): (
        "ff1a573aae8b37449c2b79ca96f7404ae82d7d05418f2a687cba6ce037a74de6"
    ),
    # 184 trees per flavor, and 86: a changed label shows here.
    ("cropped-interval", WIDE_HEIGHT): (
        "214f2653d391c32f6060dc60f4f7ee2df345ea393c0cab5d8758597c1f6e0f69"
    ),
    ("cropped-interval", WIDE_LABEL): (
        "fd008eaec22d3f9fc9475d8e2361440bf02483894f27e00eba8ca8aed25ea961"
    ),
    ("cropped-ordinal", WIDE_HEIGHT): (
        "85e24adf0fcf629b5fcc3572cb069a8882c986e719cbabbd13c1e4d219d9a42c"
    ),
    ("cropped-ordinal", WIDE_LABEL): (
        "136b2cf188863db7a87cbd19ddbb55d468a1d31f4e8b62c1622f2d3c343fe82f"
    ),
}
# SHA-256 of ``theta-disk convert --functor psi`` stdout, concatenated over
# ``enumerate_objects(ORDINAL, 3, 3)`` in order.
PSI_SHA256 = "68f8f44a72368075dcfd1cf48d5fa6e0c2f0b98451517ba6e3bd1148ee044e0e"
CONVERT_ARGS = ("convert", "--functor", "vee", '{"kind": "ordinal", "n": 3}')
SCRIPT_TIMEOUT_S = 60


def _source_env() -> dict:
    """The environment with the source tree this suite imported first on
    ``PYTHONPATH``, for a Python subprocess."""
    env = dict(os.environ)
    source_root = str(Path(theta_disk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    return env


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> dict:
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestParsing:
    def test_missing_verb_is_a_parse_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        for verb in ("enumerate", "convert", "hom-count", "cells", "verify", "render"):
            assert main([verb, "--help"]) == 0

    def test_help_documents_the_json_shapes(self, capsys):
        main(["convert", "--help"])
        text = capsys.readouterr().out
        assert '"kind"' in text
        assert '"ordinal"' in text

    def test_unknown_choice_is_a_parse_error(self, capsys):
        assert main(["enumerate", "--kind", "nope"]) == 2

    def test_malformed_json_input(self, capsys):
        assert main(["convert", "--functor", "vee", "{broken"]) == 2
        # Well-formed JSON of a known kind whose fields do not fit together.
        arrow, point = ARROW_CARDINAL.to_dict(), POINT_CARDINAL.to_dict()
        one = trivial_labeled(INTERVAL).to_dict()

        def globmor(cod: dict, maps: list) -> dict:
            return {"kind": "globmor", "dom": arrow, "cod": cod, "level_maps": maps}

        for data, problem in [
            (globmor(arrow, [[0, 1]]), "one cell map per dimension"),
            (globmor(point, [[0, 0], [0]]), "no cells in some needed dimension"),
            (globmor(arrow, [[0, 1], [0, 0]]), "dimension 1 has wrong arity"),
            (globmor(arrow, [[0, 2], [0]]), "dimension 0 has values out of range"),
            (
                {
                    "kind": "labeled-tree-mor",
                    "direction": "sideways",
                    "dom": one,
                    "cod": one,
                    "level_maps": [[0]],
                    "alphas": [],
                },
                "unknown direction 'sideways'",
            ),
            (
                {"kind": "tree", "levels": [1, -1], "parents": [[]]},
                "level sizes must be non-negative",
            ),
            (
                {"kind": "tree", "levels": [1, 3], "parents": [[0, 0]]},
                "parent map at step 0 has wrong arity",
            ),
        ]:
            assert main(["render", "--format", "json", json.dumps(data)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert problem in err, data

    @pytest.mark.parametrize("flavor, cap", [(INTERVAL, 3), (ORDINAL, 2)])
    def test_components_that_disagree_with_the_level_maps(self, capsys, flavor, cap):
        # A labeled morphism's components are fixed by its level maps, so a
        # request that declares others is refused.
        trees = enumerate_cropped_trees(flavor, 2, cap)
        data = enumerate_labeled_mors(trees[-1], trees[-1])[0].to_dict()
        assert main(["render", "--format", "json", json.dumps(data)]) == 0
        capsys.readouterr()
        root = data["alphas"][0][0]
        assert root["images"] != list(range(len(root["images"])))
        root["images"] = list(range(len(root["images"])))
        assert main(["render", "--format", "json", json.dumps(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: declared components disagree with the level maps\n"

    def test_unknown_object_kind(self, capsys):
        assert main(["convert", "--functor", "vee", '{"kind": "mystery"}']) == 2

    def test_functor_kind_mismatch(self, capsys):
        code = main(["convert", "--functor", "phi", '{"kind": "ordinal", "n": 1}'])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_bad_bounds_text(self, capsys, monkeypatch):
        assert main(["enumerate", "--kind", "ordinal", "--bounds", "width=2"]) == 2
        # Only enumerate, cells and verify read bounds, so only they take
        # --bounds or read THETA_DISK_BOUNDS.
        tree = json.dumps(trivial_obj(INTERVAL).to_dict())
        requests = [
            ["convert", "--functor", "vee", '{"kind": "ordinal", "n": 3}'],
            ["hom-count", tree, tree],
            ["render", tree],
        ]
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        answers = [run(capsys, *argv) for argv in requests]
        assert [code for code, _ in answers] == [0, 0, 0]
        monkeypatch.setenv("THETA_DISK_BOUNDS", "width=2")
        assert [run(capsys, *argv) for argv in requests] == answers
        for verb, *rest in requests:
            assert run(capsys, verb, "--bounds", "label=9", *rest) == (2, "")

    def test_number_too_large_for_an_integer(self, capsys):
        code = main(["convert", "--functor", "vee", '{"kind": "ordinal", "n": 1e400}'])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "ordinal", "n": 1.5}',
            '{"kind": "ordinal", "n": 1.0}',
            '{"kind": "ordinal", "n": true}',
            '{"kind": "ordinal", "n": "1"}',
            '{"kind": "ordmap", "dom": 1, "cod": 1, "images": [0, 1.5]}',
            '{"kind": "disk", "levels": [1, 2.0], "parents": [[0, 0]]}',
            '{"kind": "labeled-tree", "flavor": "interval", "levels": [1], '
            '"parents": [], "labels": [[0.0]]}',
            '{"kind": "itree", "flavor": "interval", "root": 1, "children": '
            '[{"kind": "itree", "flavor": "interval", "root": false, '
            '"children": []}, {"kind": "itree", "flavor": "interval", '
            '"root": 0, "children": []}]}',
        ],
    )
    def test_non_integer_number_is_a_usage_error(self, capsys, text):
        assert main(["render", "--format", "json", text]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": [1]}',
            '{"kind": "itree", "flavor": [1], "root": 0, "children": []}',
            '{"kind": "labeled-tree", "flavor": [1], "levels": [1], '
            '"parents": [], "labels": [[0]]}',
            '{"kind": "labeled-tree-mor", "direction": [1], "dom": {"kind": '
            '"labeled-tree", "flavor": "interval", "levels": [1], "parents": '
            '[], "labels": [[0]]}, "cod": {"kind": "labeled-tree", "flavor": '
            '"interval", "levels": [1], "parents": [], "labels": [[0]]}, '
            '"level_maps": [[0]], "alphas": []}',
            '{"kind": "omega-presentation", "tag": [1], "base": null}',
        ],
    )
    def test_non_string_name_is_a_usage_error(self, capsys, text):
        assert main(["render", "--format", "json", text]) == 2
        assert capsys.readouterr().err == "error: expected a string, got [1]\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"kind": "itree", "flavor": "interval", "root": 1, '
                '"children": {"a": 1}}',
                "itree field 'children' must be a list; {'a': 1} is not a list",
            ),
            (
                '{"kind": "itree", "flavor": "interval", "root": 1}',
                "itree field 'children' is missing",
            ),
            (
                '{"kind": "itree", "flavor": "interval", "root": 1, '
                '"children": [1, 2]}',
                "itree must be a JSON object, got 1",
            ),
            (
                '{"kind": "disk", "levels": [1, 2], "parents": [[0, 0]], '
                '"fiber_sizes": 5}',
                "disk field 'fiber_sizes' must be a list of lists; "
                "5 is not a list",
            ),
            (
                '{"kind": "tree", "levels": [1, 2]}',
                "tree field 'parents' is missing",
            ),
            (
                '{"kind": "tree", "levels": [1, 2], "parents": [5]}',
                "tree field 'parents' must be a list of lists; 5 is not a list",
            ),
            (
                '{"kind": "ordmap", "dom": 1, "cod": 1, "images": 5}',
                "ordmap field 'images' must be a list; 5 is not a list",
            ),
            (
                '{"kind": "labeled-tree", "levels": [1], "parents": [], '
                '"labels": [[0]]}',
                "labeled-tree field 'flavor' is missing",
            ),
            (
                '{"kind": "ograph", "vertices": 2}',
                "ograph field 'edges' is missing",
            ),
        ],
    )
    def test_mistyped_field_names_the_kind_and_field(self, capsys, text, message):
        assert main(["render", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flavor, single, other", [(INTERVAL, 0, 5), (ORDINAL, -1, 0)]
    )
    def test_label_row_below_the_stored_depth(self, capsys, flavor, single, other):
        # The second level is a chain continuation, so it is not stored and
        # its label is implied; a row there that says otherwise is refused.
        def chain(lower: int) -> str:
            return json.dumps(
                {
                    "kind": "labeled-tree",
                    "flavor": flavor,
                    "levels": [1, 1],
                    "parents": [[0]],
                    "labels": [[single], [lower]],
                }
            )

        assert main(["render", "--format", "json", chain(other)]) == 2
        assert "label row 1" in capsys.readouterr().err
        data = run_json(capsys, "render", "--format", "json", chain(single))
        assert data["labels"] == [[single]]
        # A row past the last level describes no vertex, whatever it holds.
        extra = {
            "kind": "labeled-tree",
            "flavor": flavor,
            "levels": [1],
            "parents": [],
            "labels": [[single], [single], [single] * 3],
        }
        assert main(["render", "--format", "json", json.dumps(extra)]) == 2
        assert "label row 1 lies past the last level" in capsys.readouterr().err

    def test_deeply_nested_json(self, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        assert main(["convert", "--functor", "vee", deep]) == 2
        assert capsys.readouterr().err.startswith("error: ")


ONE = '{"kind": "ordinal", "n": 1}'
# SHA-256 of ``json.dumps([exit, stdout, stderr])`` for help and usage
# errors at ``COLUMNS=80``: the top-level cases, then per verb its help, a
# missing required argument, an unknown flag and a bad choice.
USAGE_TEXT_SHA256 = {
    (): "d7411eb432e7684000ce6b2c80fd7d8818c6786aa98e640c07410a0da926f32f",
    ("--help",): "cf810f2a74f763301c73fa3b0b9f61a3b15727917e6e3b4f59b03901b052d1f8",
    ("frobnicate",): (
        "06dfc44f9550c19123481e9fbf81b4e5fc63e2b76ea3ee19be6996d644f825ad"
    ),
    ("--", "convert"): (
        "0040a2fdad91d72fae40d0439f1156ceaf34e56917c7ff6fd5aa6c4e24e29cbe"
    ),
    ("--bogus", "convert"): (
        "353cf186c6363cefb0dacc6105f6f53f29358c9362b923de0aa9e07a87aa215f"
    ),
    ("enumerate", "--help"): (
        "fa48c449eaf1cd045c1ced130f06d3d378e08672ced99ab251f136555fa8aead"
    ),
    ("enumerate",): "0504406e16fa24160a323bed97e93fd6d02f55a79659a2773ca3efcbdf0ff644",
    ("enumerate", "--kind", "ordinal", "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("enumerate", "--kind", "nope"): (
        "aef5b7f1c0a79f0c118e3f6b1aed210d5c80da27862af4d436e643ee67350539"
    ),
    ("convert", "--help"): (
        "44f5e149031a366913b62420dd4e185163d35a3b431ba6cf09903ea3a928d5c5"
    ),
    ("convert", ONE): (
        "975bc999630cc6d8bea9d2a950fad74eb2d041ccb1825aea44fcd5d862df4279"
    ),
    ("convert", "--functor", "vee", ONE, "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("convert", "--functor", "nope", ONE): (
        "9df99e66469801a9472299b902477a842839ea593476028d32bb327143c247e9"
    ),
    ("hom-count", "--help"): (
        "bfa92c1d36aa290097c754860920a23d0101d3b8d2b5a446d47bcda358339db6"
    ),
    ("hom-count", ONE): (
        "d57286356a1b55b8b895ab3247e44ffe0cd7ef44acd9f0edd6cb60c95d92fc11"
    ),
    ("hom-count", ONE, ONE, "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("hom-count", "--kind", "nope", ONE, ONE): (
        "e0f68ea079a8f511a15bf320ac3a7fa14d8002aa157caa468895d3904da82052"
    ),
    ("cells", "--help"): (
        "4984fe93ce727bcf62396ab14a764a066d321eb768ba09a35cf64e9d12978522"
    ),
    ("cells",): "f62f0b256467d5d50d7b77f1fd0c176663fb38869c13da276266c63e8f6e123e",
    ("cells", ONE, "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("verify", "--help"): (
        "c947f70510e2a01d3a55cea9b3f59389eff9383a0d8d3e29945889895bf1bb3b"
    ),
    ("verify",): "2bfafbb76ea28c31c4294555033eb64b15a61510cb9a697758e74850a4a8d478",
    ("verify", "--all", "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("verify", "--check", "nope"): (
        "aaabbf1e9a7761ed40da90d81df64ad0c5fe27e930615ace1ca8338c1f897c81"
    ),
    ("verify", "--all", "--check", "phi"): (
        "0fbf04f04a39360422c6cc1ca381f192184beb14ec7d37184160595f44881e7a"
    ),
    ("render", "--help"): (
        "79fd3ff15bc6bd6270d6f6e13ea606c8338ed243fe9943fbb6eb6c5ef1e8b6b7"
    ),
    ("render",): "1f1e3f40e6212a78350092b8754811276ed3694da63542d8a13507cbdad65d91",
    ("render", ONE, "--nope"): (
        "ee805f0a2a03a7185980f61374c522af0b8d843aceec8ab96c100652306f0320"
    ),
    ("render", "--format", "svg", ONE): (
        "52e98fac64bb8c61f3acafe5d719677980d7ca8f9312d4ab04b0abcb00070ac9"
    ),
}


def _argv_id(argv: tuple) -> str:
    return " ".join("ONE" if a == ONE else a for a in argv) or "no-arguments"


@pytest.mark.parametrize("argv", USAGE_TEXT_SHA256, ids=_argv_id)
def test_usage_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    text = json.dumps([code, *capsys.readouterr()])
    assert hashlib.sha256(text.encode()).hexdigest() == USAGE_TEXT_SHA256[argv]


# One request of each outcome: a result, a parse error, a missing
# selection, help, and a verify report.
STATELESS_REQUESTS = (
    CONVERT_ARGS,
    ("convert", "--no-such-flag", *CONVERT_ARGS[1:]),
    ("verify",),
    ("--help",),
    ("verify", "--check", "ordinal-duality", "--bounds", "label=1"),
)


class TestParserReuse:
    """``main`` reuses each verb's parser; no call may leave state for the
    next."""

    def test_requests_answer_alike_in_any_order(self, capsys):
        def answers(order) -> dict:
            return {argv: (main(list(argv)), *capsys.readouterr()) for argv in order}

        first = answers(STATELESS_REQUESTS)
        assert [code for code, _, _ in first.values()] == [0, 2, 2, 0, 0]
        assert answers(reversed(STATELESS_REQUESTS)) == first
        for argv in STATELESS_REQUESTS:
            main(["convert", "--functor", "nope", "{}"])
            capsys.readouterr()
            assert answers([argv]) == {argv: first[argv]}

    def test_options_do_not_carry_into_the_next_call(self, capsys, tmp_path):
        arrow = json.dumps(ARROW_CARDINAL.to_dict())
        tree = json.dumps(trivial_obj(INTERVAL).to_dict())
        target = tmp_path / "counts.json"
        assert main(["cells", "--bounds", "dim=1", "--out", str(target), arrow]) == 0
        assert run_json(capsys, "cells", arrow)["counts"] == [2, 3, 3, 3]
        assert json.loads(target.read_text())["counts"] == [2, 3]
        assert run(capsys, "render", "--format", "dot", tree)[1].startswith("digraph")
        assert run(capsys, "render", tree) == (0, "[0]\n")

    def test_parser_is_built_once(self, capsys):
        main(list(CONVERT_ARGS))
        assert cli._verb_parser("convert") is cli._verb_parser("convert")

    def test_rebound_functor_wins_after_a_warm_up(self, capsys, monkeypatch):
        assert run_json(capsys, *CONVERT_ARGS) == {"kind": "ordinal", "n": 2}
        monkeypatch.setattr(cli, "vee_obj", lambda m: Ordinal(m.n))
        assert run_json(capsys, *CONVERT_ARGS) == {"kind": "ordinal", "n": 3}

    def test_environment_bounds_win_after_a_warm_up(self, capsys, monkeypatch):
        arrow = json.dumps(ARROW_CARDINAL.to_dict())
        assert run_json(capsys, "cells", arrow)["counts"] == [2, 3, 3, 3]
        monkeypatch.setenv("THETA_DISK_BOUNDS", "dim=1")
        assert run_json(capsys, "cells", arrow)["counts"] == [2, 3]

    def test_import_does_not_build_the_parser(self):
        code = (
            "from theta_disk import cli; print(cli._top_parser.cache_info()"
            ".currsize, cli._verb_parser.cache_info().currsize)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_source_env(),
            timeout=SCRIPT_TIMEOUT_S,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0 0\n"

    def test_a_request_builds_only_its_own_verb_parser(self):
        # In a fresh process, one convert request builds the convert parser
        # alone, and a second request reuses it.
        code = f"""if True:
            from theta_disk import cli
            def built():
                info = cli._verb_parser.cache_info()
                top = cli._top_parser.cache_info().currsize
                return top, info.currsize, info.misses, info.hits
            states = [built()]
            for _ in range(2):
                assert cli.main({list(CONVERT_ARGS)!r}) == 0
                states.append(built())
            cli._verb_parser("convert")
            states.append(built())
            print(states)
        """
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_source_env(),
            timeout=SCRIPT_TIMEOUT_S,
        )
        assert result.returncode == 0, result.stderr
        # (top-level parsers, verb parsers, builds, reuses) after import,
        # after each request, and after asking for the convert parser.
        states = result.stdout.splitlines()[-1]
        assert states == "[(0, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 2)]"


class TestEnumerate:
    def test_ordinals_up_to_the_label_bound(self, capsys):
        code, out = run(
            capsys, "enumerate", "--kind", "ordinal", "--bounds", "label=2"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["n"] for r in rows] == [-1, 0, 1, 2]

    def test_ographs_match_the_library_enumeration(self, capsys):
        code, out = run(
            capsys, "enumerate", "--kind", "ograph", "--bounds", "vertices=3,dim=2"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == len(enumerate_ographs(3, 2))
        assert rows[0] == {"kind": "ograph", "vertices": 0, "edges": []}

    def test_every_family_enumerates(self, capsys):
        for kind in (
            "disk",
            "itree-interval",
            "itree-ordinal",
            "globcard",
            "cropped-interval",
            "cropped-ordinal",
        ):
            code, out = run(
                capsys, "enumerate", "--kind", kind, "--bounds", TINY
            )
            assert code == 0
            assert out.strip(), kind

    @pytest.mark.parametrize("kind, bounds", sorted(ENUMERATE_SHA256))
    def test_stdout_is_pinned(self, capsys, monkeypatch, kind, bounds):
        monkeypatch.delenv("THETA_DISK_BOUNDS", raising=False)
        code, out = run(capsys, "enumerate", "--kind", kind, "--bounds", bounds)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == ENUMERATE_SHA256[(kind, bounds)]

    def test_pins_cover_every_kind(self):
        assert {kind for kind, _ in ENUMERATE_SHA256} == set(cli.ENUMERATIONS)

    def test_out_writes_a_file(self, capsys, tmp_path):
        target = tmp_path / "ordinals.jsonl"
        code, out = run(
            capsys,
            "enumerate",
            "--kind",
            "ordinal",
            "--bounds",
            "label=0",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert [json.loads(l)["n"] for l in target.read_text().splitlines()] == [-1, 0]


class TestConvert:
    def test_vee_lowers_an_interval_object(self, capsys):
        data = run_json(
            capsys, "convert", "--functor", "vee", '{"kind": "ordinal", "n": 3}'
        )
        assert data == {"kind": "ordinal", "n": 2}

    def test_map_duality_round_trips(self, capsys):
        f = '{"kind": "ordmap", "dom": 2, "cod": 1, "images": [0, 0, 1]}'
        dual = run_json(capsys, "convert", "--functor", "vee", f)
        back = run_json(capsys, "convert", "--functor", "wedge", json.dumps(dual))
        assert back == json.loads(f)

    def test_phi_round_trips_on_the_trivial_disk(self, capsys):
        disk = json.dumps(trivial_disk().to_dict())
        tree = run_json(capsys, "convert", "--functor", "phi", disk)
        assert tree == trivial_obj(INTERVAL).to_dict()
        back = run_json(
            capsys, "convert", "--functor", "phi-inverse", json.dumps(tree)
        )
        assert back == json.loads(disk)

    def test_gamma_round_trips_on_the_arrow(self, capsys):
        card = run_json(
            capsys,
            "convert",
            "--functor",
            "gamma-prime",
            json.dumps(ARROW_OGRAPH.to_dict()),
        )
        assert card == ARROW_CARDINAL.to_dict()
        back = run_json(capsys, "convert", "--functor", "gamma", json.dumps(card))
        assert back == ARROW_OGRAPH.to_dict()

    def test_upsilon_round_trips_on_the_arrow(self, capsys):
        tree = run_json(
            capsys,
            "convert",
            "--functor",
            "upsilon-prime",
            json.dumps(ARROW_OGRAPH.to_dict()),
        )
        assert tree["kind"] == "itree" and tree["flavor"] == ORDINAL
        back = run_json(capsys, "convert", "--functor", "upsilon", json.dumps(tree))
        assert back == ARROW_OGRAPH.to_dict()

    def test_xi_round_trips_on_a_labeled_tree(self, capsys):
        tree = run_json(
            capsys, "convert", "--functor", "xi", json.dumps(TWO_LEAVES.to_dict())
        )
        assert tree["kind"] == "itree"
        back = run_json(
            capsys, "convert", "--functor", "xi-inverse", json.dumps(tree)
        )
        assert back == TWO_LEAVES.to_dict()

    def test_con_dualize_flips_the_flavor(self, capsys):
        data = run_json(
            capsys,
            "convert",
            "--functor",
            "con-dualize",
            json.dumps(trivial_labeled(INTERVAL).to_dict()),
        )
        assert data == trivial_labeled(ORDINAL).to_dict()

    def test_comparison_on_a_point_cell(self, capsys):
        cell = enumerate_cells(gamma_prime(POINT_OGRAPH), 0)[0]
        data = run_json(
            capsys, "convert", "--functor", "L", json.dumps(cell.to_dict())
        )
        assert data == {"kind": "enriched-cell", "dim": 0, "h": 0, "k": 0, "parts": []}

    def test_psi_presents_a_tree(self, capsys):
        tree = json.dumps(trivial_obj(ORDINAL).to_dict())
        data = run_json(capsys, "convert", "--functor", "psi", tree)
        assert data["kind"] == "omega-presentation"

    def test_psi_stdout_is_pinned(self, capsys):
        trees = enumerate_objects(ORDINAL, 3, 3)
        assert len(trees) == 14
        out = ""
        for h in trees:
            code, text = run(
                capsys, "convert", "--functor", "psi", json.dumps(h.to_dict())
            )
            assert code == 0
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == PSI_SHA256

    def test_path_input_is_read_from_disk(self, capsys, tmp_path):
        source = tmp_path / "three.json"
        source.write_text('{"kind": "ordinal", "n": 3}')
        data = run_json(capsys, "convert", "--functor", "vee", str(source))
        assert data == {"kind": "ordinal", "n": 2}

    def test_inline_json_never_touches_the_filesystem(self, capsys, monkeypatch):
        def no_stat(path):
            raise AssertionError(f"looked up {path} on disk")

        monkeypatch.setattr(Path, "is_file", no_stat)
        for source in ('{"kind": "ordinal", "n": 3}', ' \n {"kind": "ordinal", "n": 3}'):
            data = run_json(capsys, "convert", "--functor", "vee", source)
            assert data == {"kind": "ordinal", "n": 2}


def _dispatch_samples() -> dict[str, list[str]]:
    """Inputs per object kind that each functor defined on the kind accepts
    (inductive trees need one of each flavor)."""
    interval = trivial_labeled(INTERVAL)
    objects = {
        "ordinal": [Ordinal(3)],
        "ordmap": [OrdMap(Ordinal(2), Ordinal(1), (0, 0, 1))],
        "tree": [POINT_TREE],
        "disk": [trivial_disk()],
        "itree": [trivial_obj(INTERVAL), trivial_obj(ORDINAL)],
        "globcard": [ARROW_CARDINAL],
        "globmor": [enumerate_glob_morphisms(ARROW_CARDINAL, ARROW_CARDINAL)[0]],
        "ograph": [ARROW_OGRAPH],
        "labeled-tree": [interval],
        "labeled-tree-mor": [enumerate_labeled_mors(interval, interval)[0]],
        "cell": [enumerate_cells(ARROW_CARDINAL, 0)[0]],
        "enriched-cell": [EnrichedCell(0, 0, 0)],
        "omega-presentation": [psi_obj(trivial_obj(ORDINAL))],
    }
    return {
        kind: [json.dumps(obj.to_dict()) for obj in objs]
        for kind, objs in objects.items()
    }


# The (functor, object kind) pairs that ``convert`` applies.
CONVERTIBLE = {
    ("vee", "ordinal"),
    ("vee", "ordmap"),
    ("vee", "itree"),
    ("wedge", "ordinal"),
    ("wedge", "ordmap"),
    ("wedge", "itree"),
    ("phi", "disk"),
    ("phi-inverse", "itree"),
    ("gamma", "globcard"),
    ("gamma-prime", "ograph"),
    ("upsilon", "itree"),
    ("upsilon-prime", "ograph"),
    ("xi", "labeled-tree"),
    ("xi-inverse", "itree"),
    ("L", "cell"),
    ("psi", "itree"),
    ("con-dualize", "labeled-tree"),
    ("con-dualize", "labeled-tree-mor"),
}


class TestDispatch:
    def test_samples_cover_every_kind(self):
        assert set(_dispatch_samples()) == set(_PARSERS)
        assert len(CONVERTIBLE) == 18
        assert {functor for functor, _ in CONVERTIBLE} == set(FUNCTORS)

    @pytest.mark.parametrize("functor", FUNCTORS)
    def test_functor_applies_exactly_to_its_kinds(self, capsys, functor):
        for kind, samples in _dispatch_samples().items():
            codes = []
            for sample in samples:
                codes.append(main(["convert", "--functor", functor, sample]))
                mismatch = "does not apply" in capsys.readouterr().err
                assert mismatch == ((functor, kind) not in CONVERTIBLE), kind
            expected = 0 if (functor, kind) in CONVERTIBLE else 2
            assert min(codes) == expected, kind

    def test_rebound_functor_is_the_one_that_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "vee_obj", lambda m: Ordinal(m.n))
        assert run_json(capsys, *CONVERT_ARGS) == {"kind": "ordinal", "n": 3}


class TestHomCount:
    def test_interval_maps_between_ordinals(self, capsys):
        data = run_json(
            capsys,
            "hom-count",
            '{"kind": "ordinal", "n": 2}',
            '{"kind": "ordinal", "n": 2}',
            "--kind",
            "interval",
        )
        assert data == {"kind": "hom-count", "count": 3}

    def test_monotone_maps_are_the_default(self, capsys):
        data = run_json(
            capsys,
            "hom-count",
            '{"kind": "ordinal", "n": 1}',
            '{"kind": "ordinal", "n": 1}',
        )
        assert data == {"kind": "hom-count", "count": 3}

    @pytest.mark.parametrize(
        "n, count", [(30, 232714176627630544), (40, 212392290424395860814420)]
    )
    def test_large_ordinals_are_counted_by_formula(self, capsys, n, count):
        big = json.dumps({"kind": "ordinal", "n": n})
        assert run_json(capsys, "hom-count", big, big)["count"] == count

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("reading", ["itree", "labeled", "disk"])
    def test_a_wide_root_is_counted_at_once(self, capsys, n, reading):
        # C(2n + 1, n) morphisms, one per root map: the count walks the
        # grid of child counts instead of the root maps.
        tree = wide_ordinal_tree(n)
        obj = {
            "itree": tree,
            "labeled": xi_inverse(tree),
            "disk": phi_inverse_obj(wedge(tree)),
        }[reading]
        text = json.dumps(obj.to_dict())
        start = time.perf_counter()
        assert run_json(capsys, "hom-count", text, text)["count"] == math.comb(
            2 * n + 1, n
        )
        assert time.perf_counter() - start < 1.0

    @pytest.fixture
    def digit_limit(self):
        """Python's default limit on printed integer digits, for one test."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("maps", [[], ["--kind", "interval"]])
    @pytest.mark.parametrize("n", [3_000_000, 100_000])
    def test_counts_too_long_to_print_are_refused(self, capsys, digit_limit, maps, n):
        big = json.dumps({"kind": "ordinal", "n": n})
        start = time.perf_counter()
        assert main(["hom-count", *maps, big, big]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "",
            "error: the count has more than 4300 decimal digits, the most "
            "Python prints (sys.get_int_max_str_digits(); PYTHONINTMAXSTRDIGITS "
            "sets it)\n",
        )

    def test_a_long_count_within_the_limit_is_printed(self, capsys, digit_limit):
        # [0] -> [10**400]: one map per value, a count of 401 digits.
        point, huge = (json.dumps({"kind": "ordinal", "n": n}) for n in (0, 10**400))
        assert run_json(capsys, "hom-count", point, huge)["count"] == 10**400 + 1

    def test_every_counter_refuses_a_count_too_long_to_print(
        self, capsys, monkeypatch, digit_limit
    ):
        arrow = json.dumps(ARROW_OGRAPH.to_dict())
        limit = digit_limit
        monkeypatch.setattr(cli, "count_ograph_morphisms", lambda a, b: 10**limit)
        assert main(["hom-count", arrow, arrow]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"more than {limit} decimal digits" in err
        monkeypatch.setattr(cli, "count_ograph_morphisms", lambda a, b: 10**limit - 1)
        assert run_json(capsys, "hom-count", arrow, arrow)["count"] == 10**limit - 1

    @pytest.mark.parametrize("dom, cod", [(-1, 2), (2, -1), (-1, -1)])
    def test_interval_maps_need_non_empty_ordinals(self, capsys, dom, cod):
        code = main(
            [
                "hom-count",
                "--kind",
                "interval",
                json.dumps({"kind": "ordinal", "n": dom}),
                json.dumps({"kind": "ordinal", "n": cod}),
            ]
        )
        assert code == 2
        assert "non-empty ordinals" in capsys.readouterr().err

    @pytest.mark.parametrize("maps", ["interval", "ordinal"])
    def test_kind_needs_a_pair_of_ordinals(self, capsys, maps):
        trivial = json.dumps(
            {"kind": "itree", "flavor": "ordinal", "root": -1, "children": []}
        )
        assert main(["hom-count", "--kind", maps, trivial, trivial]) == 2
        err = capsys.readouterr().err
        assert "--kind applies only to a pair of ordinals" in err
        arrow = json.dumps(ARROW_OGRAPH.to_dict())
        assert main(["hom-count", "--kind", maps, arrow, arrow]) == 2
        assert run_json(capsys, "hom-count", trivial, trivial)["count"] == 1

    @pytest.mark.parametrize(
        "obj, name",
        [
            ({"kind": "tree", "levels": [1, 2], "parents": [[0, 0]]}, "LevelTree"),
            ({"kind": "ordmap", "dom": 1, "cod": 2, "images": [0, 2]}, "OrdMap"),
        ],
    )
    def test_a_same_kind_pair_without_a_counter_names_the_counted_kinds(
        self, capsys, obj, name
    ):
        text = json.dumps(obj)
        assert main(["hom-count", text, text]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: hom-count does not count {name} morphisms; it counts them "
            "between two objects of kind ordinal, ograph, disk, itree, globcard "
            "or labeled-tree\n",
        )
        # Every kind the message names is counted.
        for counted in (
            {"kind": "ordinal", "n": 1},
            ARROW_OGRAPH.to_dict(),
            trivial_disk().to_dict(),
            trivial_obj(ORDINAL).to_dict(),
            POINT_CARDINAL.to_dict(),
            trivial_labeled(INTERVAL).to_dict(),
        ):
            text = json.dumps(counted)
            assert run_json(capsys, "hom-count", text, text)["kind"] == "hom-count"

    def test_a_mixed_pair_names_both_kinds(self, capsys):
        point = json.dumps({"kind": "ordinal", "n": 0})
        assert main(["hom-count", point, json.dumps(ARROW_OGRAPH.to_dict())]) == 2
        assert capsys.readouterr() == (
            "",
            "error: hom-count requires two objects of the same kind; got Ordinal "
            "and OGraph\n",
        )

    def test_ograph_pair(self, capsys):
        arrow = json.dumps(ARROW_OGRAPH.to_dict())
        data = run_json(capsys, "hom-count", arrow, arrow)
        assert data["count"] == 1
        point = json.dumps(POINT_OGRAPH.to_dict())
        data = run_json(capsys, "hom-count", point, arrow)
        assert data["count"] == 2

    def test_disk_pair(self, capsys):
        two = {"kind": "disk", "levels": [1, 2], "parents": [[0, 0]]}
        tall = {
            "kind": "disk", "levels": [1, 3, 4], "parents": [[0, 0, 0], [0, 1, 1, 2]]
        }
        trivial = json.dumps(trivial_disk().to_dict())
        for dom, cod, count in [
            (tall, tall, 3), (tall, two, 2), (two, tall, 1), (two, two, 1)
        ]:
            data = run_json(capsys, "hom-count", json.dumps(dom), json.dumps(cod))
            assert data == {"kind": "hom-count", "count": count}
        assert run_json(capsys, "hom-count", json.dumps(tall), trivial)["count"] == 1
        assert run_json(capsys, "hom-count", trivial, json.dumps(tall))["count"] == 0

    @pytest.mark.parametrize(
        "width, lists",
        [
            (3, "are [0, 1, 2] but the fiber endpoints from below are [0, 2]"),
            (
                3000,
                "are 3,000 vertices (0, 1, 2, …) but the fiber endpoints from "
                "below are [0, 2999]",
            ),
        ],
    )
    def test_an_invalid_disk_names_few_vertices(self, capsys, width, lists):
        # Every vertex of level 1 has a singleton fiber, not just the ends.
        wide = json.dumps(
            {"kind": "disk", "levels": [1, width], "parents": [[0] * width]}
        )
        assert main(["hom-count", wide, wide]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: invalid disk: level 1: vertices with singleton fibers {lists}\n",
        )

    @pytest.mark.parametrize(
        "flavor, height, root",
        [(INTERVAL, 2, 4), (ORDINAL, 2, 3), (INTERVAL, 3, 3), (ORDINAL, 3, 2)],
    )
    def test_labeled_pairs_count_their_listed_hom_sets(self, flavor, height, root):
        # As parsed from JSON: plain labeled trees, not the cropped class.
        trees = [
            LabeledTree.from_dict(t.to_dict())
            for t in enumerate_cropped_trees(flavor, height, root)
        ]
        for a in trees:
            for b in trees:
                listed = len(enumerate_labeled_mors(a, b))
                assert cli._hom_count(a, b, None) == listed

    def test_cardinal_pairs_count_their_listed_hom_sets(self):
        cards = [gamma_prime(g) for g in enumerate_ographs(7, 7)]
        assert len(cards) == 10
        for a in cards:
            for b in cards:
                listed = len(enumerate_glob_morphisms(a, b))
                assert cli._hom_count(a, b, None) == listed

    def test_labeled_pair(self, capsys):
        point = trivial_labeled(INTERVAL)
        two = json.dumps(TWO_LEAVES.to_dict())
        # Not cropped: the interior slot holds a single-slot label, as the
        # labels declare, so the input is refused.
        wide = json.dumps(
            {
                "kind": "labeled-tree",
                "flavor": "interval",
                "levels": [1, 3],
                "parents": [[0, 0, 0]],
                "labels": [[2], [0, 0, 0]],
            }
        )
        assert run_json(capsys, "hom-count", two, two)["count"] == 1
        data = run_json(capsys, "hom-count", two, json.dumps(point.to_dict()))
        assert data["count"] == 1
        ordinal = json.dumps(trivial_labeled(ORDINAL).to_dict())
        forest = json.dumps(
            {
                "kind": "labeled-tree",
                "flavor": "interval",
                "levels": [2],
                "parents": [],
                "labels": [[0, 0]],
            }
        )
        for dom, cod, message in [
            (two, ordinal, "common flavor"),
            (wide, two, "invalid disk: level 1"),
            (forest, forest, "a disk is carried by a tree (single root)"),
        ]:
            assert main(["hom-count", dom, cod]) == 2
            assert message in capsys.readouterr().err

    def test_invalid_disk_is_a_usage_error(self, capsys):
        # A vertex below the degree with an empty fiber parses as a level
        # tree but is no disk.
        bare = json.dumps(
            {"kind": "disk", "levels": [1, 2, 1], "parents": [[0, 0], [0]]}
        )
        assert main(["hom-count", bare, bare]) == 2
        assert "invalid disk" in capsys.readouterr().err
        # A disk or an inductive tree that breaks its rules is refused on
        # every verb, before any functor or counter sees it.
        flat = json.dumps({"kind": "disk", "levels": [1, 3], "parents": [[0, 0, 0]]})
        t_i, t_o = trivial_obj(INTERVAL).to_dict(), trivial_obj(ORDINAL).to_dict()
        o0 = {"kind": "itree", "flavor": ORDINAL, "root": 0, "children": [t_o, t_o]}
        hollow = json.dumps(
            {"kind": "itree", "flavor": INTERVAL, "root": 2, "children": [t_i] * 3}
        )
        capped = json.dumps(
            {"kind": "itree", "flavor": ORDINAL, "root": 0, "children": [o0, o0]}
        )
        for argv, problem in [
            (["render", flat], "invalid disk: level 1"),
            (["convert", "--functor", "vee", hollow], "interior child"),
            (["convert", "--functor", "phi-inverse", hollow], "interior child"),
            (["convert", "--functor", "xi-inverse", hollow], "interior child"),
            (["hom-count", hollow, hollow], "interior child"),
            (["render", hollow], "interior child"),
            (["convert", "--functor", "upsilon", capped], "endpoint child"),
            (["convert", "--functor", "psi", capped], "endpoint child"),
            (["convert", "--functor", "wedge", capped], "endpoint child"),
        ]:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert problem in err, argv

    def test_mismatched_kinds_fail(self, capsys):
        code = main(
            [
                "hom-count",
                '{"kind": "ordinal", "n": 1}',
                json.dumps(ARROW_OGRAPH.to_dict()),
            ]
        )
        assert code == 2


class TestCells:
    def test_arrow_counts_through_dimension_two(self, capsys):
        data = run_json(
            capsys,
            "cells",
            json.dumps(ARROW_CARDINAL.to_dict()),
            "--bounds",
            "dim=2",
        )
        assert data == {"kind": "cell-counts", "counts": [2, 3, 3]}

    def test_ograph_input_is_accepted(self, capsys):
        data = run_json(
            capsys,
            "cells",
            json.dumps(ARROW_OGRAPH.to_dict()),
            "--bounds",
            "dim=2",
        )
        assert data["counts"] == [2, 3, 3]

    def test_environment_supplies_base_bounds(self, capsys, monkeypatch):
        monkeypatch.setenv("THETA_DISK_BOUNDS", "dim=1")
        data = run_json(capsys, "cells", json.dumps(ARROW_CARDINAL.to_dict()))
        assert data["counts"] == [2, 3]

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("THETA_DISK_BOUNDS", "dim=1")
        data = run_json(
            capsys,
            "cells",
            json.dumps(ARROW_CARDINAL.to_dict()),
            "--bounds",
            "dim=0",
        )
        assert data["counts"] == [2]

    def test_rejects_non_base_input(self, capsys):
        assert main(["cells", '{"kind": "ordinal", "n": 1}']) == 2


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--check", "ordinal-duality", "--bounds", "label=2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["check"] == "ordinal-duality"
        assert data["passed"] is True

    def test_all_checks_at_tiny_bounds(self, capsys):
        code, out = run(capsys, "verify", "--all", "--bounds", TINY)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == len(CHECKS)
        assert [json.loads(l)["check"] for l in lines] == list(CHECKS)

    def test_failures_set_the_exit_status(self, capsys, monkeypatch):
        def stub(bounds: Bounds) -> Report:
            return Report("xi", bounds, {}, False, {"law": "stub"})

        monkeypatch.setitem(CHECKS, "xi", stub)
        code, out = run(capsys, "verify", "--check", "xi")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_requires_a_selection(self, capsys):
        assert main(["verify"]) == 2

    def test_out_writes_reports(self, capsys, tmp_path):
        target = tmp_path / "reports.jsonl"
        code, _ = run(
            capsys,
            "verify",
            "--check",
            "ordinal-duality",
            "--bounds",
            "label=1",
            "--out",
            str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True


class TestRender:
    def test_text_shows_vertices_and_labels(self, capsys):
        code, out = run(capsys, "render", json.dumps(TWO_LEAVES.to_dict()))
        assert code == 0
        assert out.split("\n")[:3] == ["(0, 0) [1]", "  (1, 0) [0]", "  (1, 1) [0]"]

    def test_text_renders_plain_trees_and_disks(self, capsys):
        code, out = run(
            capsys,
            "render",
            '{"kind": "tree", "levels": [1, 2], "parents": [[0, 0]]}',
        )
        assert code == 0
        assert out == "(0, 0)\n  (1, 0)\n  (1, 1)\n"
        code, out = run(capsys, "render", json.dumps(trivial_disk().to_dict()))
        assert code == 0
        assert out == "(0, 0)\n"

    def test_dot_output_ranks_levels(self, capsys):
        code, out = run(
            capsys, "render", json.dumps(TWO_LEAVES.to_dict()), "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert 'v0_0 [label="(0,0) [1]"];' in out
        assert "v0_0 -> v1_0;" in out
        assert "rank=same" in out

    def test_dot_renders_inductive_trees(self, capsys):
        tree = {
            "kind": "itree",
            "flavor": INTERVAL,
            "root": 1,
            "children": [
                {"kind": "itree", "flavor": INTERVAL, "root": 0, "children": []},
                {"kind": "itree", "flavor": INTERVAL, "root": 0, "children": []},
            ],
        }
        code, out = run(capsys, "render", json.dumps(tree), "--format", "dot")
        assert code == 0
        assert 'n0 [label="[1]"];' in out
        assert 'n0 -> n1 [label="0"];' in out

    def test_json_format_is_canonical(self, capsys):
        data = run_json(
            capsys,
            "render",
            '{"kind": "ordinal", "n": 2}',
            "--format",
            "json",
        )
        assert data == {"kind": "ordinal", "n": 2}

    def test_non_tree_objects_are_rejected(self, capsys):
        code = main(
            ["render", json.dumps(ARROW_OGRAPH.to_dict()), "--format", "dot"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "tag, base, problem",
        [
            ("empty", POINT_OGRAPH.to_dict(), "takes no base"),
            ("free_ograph", None, "requires a base"),
            ("free_ograph", OGraph(0).to_dict(), "requires a non-empty graph"),
        ],
    )
    def test_presentation_base_must_match_its_tag(self, capsys, tag, base, problem):
        text = json.dumps({"kind": "omega-presentation", "tag": tag, "base": base})
        assert main(["render", "--format", "json", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"presentation tag {tag!r} {problem}" in err

    @pytest.mark.parametrize(
        "tag, base", [("terminal", POINT_OGRAPH.to_dict()), ("free_globcard", None)]
    )
    def test_presentations_are_empty_or_on_an_ograph(self, capsys, tag, base):
        text = json.dumps({"kind": "omega-presentation", "tag": tag, "base": base})
        assert main(["render", "--format", "json", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unknown presentation tag {tag!r}" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["theta-disk"]
        module, attr = target.split(":")
        # Run the entry point the way the generated console script does, against
        # the same source tree this suite imported.
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        result = subprocess.run(
            [sys.executable, "-c", code, *CONVERT_ARGS],
            capture_output=True,
            text=True,
            env=_source_env(),
            timeout=SCRIPT_TIMEOUT_S,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"kind": "ordinal", "n": 2}

    @pytest.mark.skipif(
        shutil.which("theta-disk") is None,
        reason="theta-disk console script not installed",
    )
    def test_console_script_on_path(self):
        result = subprocess.run(
            ["theta-disk", *CONVERT_ARGS],
            capture_output=True,
            text=True,
            timeout=SCRIPT_TIMEOUT_S,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"kind": "ordinal", "n": 2}
