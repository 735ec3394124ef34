"""The Baseline spec and the md5 and byte length of each CLI output pinned on
it.  Plain data with no imports, so both the suite (`conftest.BASELINE`,
`test_large_n.py`) and `tools/interpreters.py` (through `runpy.run_path`)
read these values from this one file.
"""

#: Seeds 2, 3, 5, 7, 11, 13 and 2-periodic a = (2, -1/3), b = (1, 5/7).
BASELINE = {
    "initial": ["2", "3", "5", "7", "11", "13"],
    "coeffs": {"kind": "periodic", "period": 2, "a": ["2", "-1/3"], "b": ["1", "5/7"]},
    "horizon": 40,
}

# iterate, solve and solve --engine auto write the same CSV.
CSV_800 = ("fe14fb54f74a472326805c9deacb930a", 4346010)
CSV_1600 = ("34820e634918d0f03105df708b10fbe0", 33844858)
CSV_3200 = ("ee2041e4b0fa99bbe62492b49f8898d5", 267634192)
COMPARE_800 = ("306648bc51aca33ad056d0b60339c7a6", 13071549)
COMPARE_1600 = ("61c10832c7d468b76836cc204d4cdaf2", 101599311)
VERIFY_SYMMETRY = ("7b40b7188ae077a96ca487cc1fd6a3d7", 96)  # with its defaults, no spec

#: (argv, pin) of each N = 800 spec command and of `verify-symmetry`: the
#: pins `tools/interpreters.py` checks on every interpreter.
MATRIX = [
    (["iterate", "--n", "800"], CSV_800),
    (["solve", "--range", "-5..800"], CSV_800),
    (["solve", "--range", "-5..800", "--engine", "auto"], CSV_800),
    (["compare", "--n", "800"], COMPARE_800),
    (["verify-symmetry"], VERIFY_SYMMETRY),
]
