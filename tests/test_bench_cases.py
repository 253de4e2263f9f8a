"""The output of every benchmark case, pinned.

bench/run.py rejects a pass whose output digest differs from the first
pass of the same run, so it catches nondeterminism but not a change of
output between two commits.  This test builds every case of every band in
``bench/workloads.py`` and compares the sha256 of each object dump, and for
``form`` cases of the form dump too, against values recorded before the
build's hat assembly was rewritten in place: a change to the output of the
build hot path fails here.  Like ``test_bench_contract``, it only reads
bench/.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qtilt import forms, serialize, xcat
from qtilt.ring import parse_ring
from qtilt.rootsys import root_system

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

# Case id -> sha256 of the object dump (and of the form dump, form cases).
PINNED = {
    "smax-A1-cyc:3-(4)": (
        "aa384b286aeeb5eb1df203a6b0fcb45d1a1c27380915f57d4306d40af6813b0e",
    ),
    "smax-A1-cyc:6-(4)": (
        "0130dca53a7d8468c58e035bb991715f5e4b4fe7c5bc42992c74af68b9723d3f",
    ),
    "smax-A1-cyc:3-(5)": (
        "068044f269d31f88b869532dfc206c036d955b9525dcb38cadaab8cc72ed2f8e",
    ),
    "smax-A1-cyc:6-(5)": (
        "61e8ea28c6c0d274e5de23b9d80f6e00b65f3ced2530f60c81be9e4d68dadaf3",
    ),
    "smax-A1-cyc:3-(8)": (
        "eab67de029b8c2b579281d3f2c10cee767042b4472ce5e37a3319c7138157ca9",
    ),
    "smax-A1-cyc:6-(8)": (
        "5f5bab1cab1c29bad37bdabcc8ff388d4a364a06065f34f3694de6865e5c53a8",
    ),
    "smax-A1-int:3-(14)": (
        "35df2b7a5605c987790e3c3415b6d7eedcb8cc280f4c819e0748a4b1fd48cf6d",
    ),
    "smax-A1-int:5-(14)": (
        "ace2dd4ab7c02d352ab98815595c639dbe52931842cd2ad7aa8ff7ee944213c0",
    ),
    "smin-A2-cyc:3-(2,1)": (
        "bb47e77d9f94a87d83e942839d964daada97e0dc691664562713438f67bb2c11",
    ),
    "smin-A2-cyc:6-(2,1)": (
        "878a13fe787cd89996b4611a92dff3283c0a22d0687448dbfe45558a5dd60559",
    ),
    "smin-B2-cyc:3-(1,1)": (
        "672198d940a2ab8f6567c2bbaa6f06ea73a3fd99012a9a72cca5d5af1e1a5bb9",
    ),
    "smin-B2-cyc:6-(1,1)": (
        "38ab1ecd8d49721ec969a641df13abe1006a05c58c92070a0706a4ea0595f5b3",
    ),
    "smax-C3-cyc:3-(0,1,0)": (
        "ffd744d26e1b29e85f985ccd0ae2ade483643b98225ef73408fc5c2c2fed1cd0",
    ),
    "smax-C3-cyc:6-(0,1,0)": (
        "b6ff82d5f11f20ac9531065f1eafa903b3e429de44b43d5c020bdbd60c65606a",
    ),
    "smax-A3-cyc:3-(1,0,1)": (
        "f38d55e0e19fd95ba93b5e3120e419dfb7545f53b24aaab4073a80ff76e2049b",
    ),
    "smax-A3-cyc:6-(1,0,1)": (
        "119c192f1c2782231bc19c95dcc520712ae659855aa5dd749a175572934c49f7",
    ),
    "smin-G2-cyc:3-(1,0)": (
        "842640c332f6f4a35906b791d4aba6d0ebecb0539c08f3cb5a01e7e5dec552fe",
    ),
    "smin-G2-cyc:6-(1,0)": (
        "5e0ae8d500408b06b319b19449df7e60c9ac70f00abc5c48208ea0ff5fcff637",
    ),
    "smax-A2-int:2-(2,1)": (
        "842a575ca84cfd2319086cbd313f6a60b09503cfb6449cb397c52a75773ff21b",
    ),
    "smin-A3-int:3-(1,0,1)": (
        "2fbc283e71d30983bb35e713769149cf6961bcfbc1e6e7ab48c0029b36971056",
    ),
    "form-A1-cyc:3-(3)": (
        "864f2fdc664b2ad04f134f8e1af8b0bcb3c7c6944881e9a964b692daddd221f9",
        "ba893c94310c358d6e97c693cf4cb0177af024445aad5aa8f4544bbc7765951b",
    ),
    "form-A1-cyc:6-(3)": (
        "e030efa11f13eb6a354217eb2eb064edf3ae752743118cc53daf0135bf1ecc96",
        "eb7661bca52751f3adf3012b2dcc2e78480e4955f335d9b64a11407b297545f1",
    ),
    "form-A1-cyc:3-(4)": (
        "84f10d050a4795a59841b8c04985589ffa7139d317f880fdb98292e744131901",
        "1ac1cab9fdf51da7c977b13f365e5b7e733b86e880b4b6177a2465d8a75af3c1",
    ),
    "form-A1-cyc:6-(4)": (
        "d3d86f46d038409c486cc85804ec8405d10770915906ddc4ac43917461c17754",
        "a82b8097e5209a645ce2e8c32df8518ed521855090509d5f87597e5b9f2e8205",
    ),
    "form-A1-cyc:3-(5)": (
        "068044f269d31f88b869532dfc206c036d955b9525dcb38cadaab8cc72ed2f8e",
        "7445b7f1cb0c5320a79e45d0ae55cde3523534b4192d2accf4269e880ea32b99",
    ),
    "form-A1-cyc:6-(5)": (
        "61e8ea28c6c0d274e5de23b9d80f6e00b65f3ced2530f60c81be9e4d68dadaf3",
        "28dc01fcde2a8c80259aa830a3fc8cab39b574ddfcb2d4b303162bdbe3de9d6d",
    ),
    "form-A2-cyc:3-(1,1)": (
        "3996c624d8ba06c9937505de180d1813403e5cb1a8b3d549e332276d5c80110a",
        "6a48cfc5bdd1dd353b12c2d63a5b474554b7ed064f09d4178149b66595c3ee93",
    ),
    "form-A2-cyc:6-(1,1)": (
        "e2b0bb1ae4e6bc90729fec979b77cb3757b7711a3f66a9065cfc78e8b1f49a64",
        "1f6ec0c32932f52f33a9284bbd067d9c6d4861e288a2121556cbd460bf006b70",
    ),
    "form-A2-cyc:3-(2,1)": (
        "bb47e77d9f94a87d83e942839d964daada97e0dc691664562713438f67bb2c11",
        "509ab0ab5f2d25d16fea08c0ef9e802e04dd6b30dc3d77a9111a0ea7192431b5",
    ),
    "form-A2-cyc:6-(2,1)": (
        "878a13fe787cd89996b4611a92dff3283c0a22d0687448dbfe45558a5dd60559",
        "b849508407c63a362cf83c897a4660d4aa66fe7d05959bc4f367ee84e1b3abc7",
    ),
    "form-B2-cyc:3-(1,1)": (
        "672198d940a2ab8f6567c2bbaa6f06ea73a3fd99012a9a72cca5d5af1e1a5bb9",
        "9eb200e9affd289be9a8808f2ded72257ffc42fd8a20c72f0a8c63408715d6e2",
    ),
    "form-B2-cyc:6-(1,1)": (
        "38ab1ecd8d49721ec969a641df13abe1006a05c58c92070a0706a4ea0595f5b3",
        "1c65fd8aebd22bf49ba8ed1e075623a0bd752076a2f329d529f01014ff8625b1",
    ),
}


def _workloads():
    # The dataclasses of workloads.py look their module up in sys.modules
    # while the class is made.
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]
    return mod


CASES = [case for bands in _workloads().WORKLOADS.values() for band in bands for case in band]


def _dumps(case):
    rs, ring = root_system(case.root), parse_ring(case.ring)
    if case.kind == "form":
        M, b = forms.build_smax_with_form(rs, ring, case.weight)
        return serialize.dump_xobject(M), serialize.dump_form(M, b)
    build = xcat.build_smax if case.kind == "smax" else xcat.build_smin
    return (serialize.dump_xobject(build(rs, ring, case.weight)),)


def test_every_case_is_pinned():
    assert sorted(c.id for c in CASES) == sorted(PINNED)


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_case_output_is_pinned(case):
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in _dumps(case))
    assert got == PINNED[case.id]
