"""The CLI runs whose output is pinned byte for byte, as (file under
tests/golden, argv) pairs: tests/test_cli.py compares each run with its
golden copy, and tests/test_reachability.py traces the same runs.  Pytest
does not collect this module."""

_P1, _P4 = ["--type", "F4", "--theta", "2,3,4"], ["--type", "F4", "--theta", "1,2,3"]


GOLDEN_RUNS = [
    ("weyl_cosets_f4_p1.txt", ["weyl", "cosets", *_P1]),
    ("weyl_cosets_f4_p1_maximal.txt", ["weyl", "cosets", *_P1, "--maximal"]),
    ("weyl_cosets_b3_theta2.txt", ["weyl", "cosets", "--type", "B3", "--theta", "2"]),
    ("hasse_f4_p1.dot", ["hasse", *_P1, "--format", "dot"]),
    ("hasse_f4_p1_by_codim.dot", ["hasse", *_P1, "--format", "dot", "--by-codim"]),
    ("hasse_f4_p1.json", ["hasse", *_P1, "--format", "json"]),
    ("hasse_f4_p4.dot", ["hasse", *_P4, "--format", "dot"]),
    ("hasse_f4_p4_by_codim.dot", ["hasse", *_P4, "--format", "dot", "--by-codim"]),
    ("hasse_f4_p4.json", ["hasse", *_P4, "--format", "json"]),
    ("pieri_f4_p1.json", ["hasse", *_P1, "--pieri", "--format", "json"]),
    ("pieri_f4_p4.json", ["hasse", *_P4, "--pieri", "--format", "json"]),
    ("chow_basis_f4_p1.txt", ["chow", "basis", *_P1]),
    ("chow_basis_f4_p4.txt", ["chow", "basis", *_P4]),
    ("chow_table_f4_p1.txt", ["chow", "table", *_P1]),
    ("chow_table_f4_p4.txt", ["chow", "table", *_P4]),
    ("giambelli_lift_f4_p1_h1_4.txt", ["chow", "giambelli-lift", *_P1, "--class", "h1^4"]),
    ("giambelli_lift_f4_p1_h2_8.txt", ["chow", "giambelli-lift", *_P1, "--class", "h2^8"]),
    ("giambelli_lift_f4_p1_h1_15.txt", ["chow", "giambelli-lift", *_P1, "--class", "h1^15"]),
    ("giambelli_lift_f4_p4_g1_4.txt", ["chow", "giambelli-lift", *_P4, "--class", "g1^4"]),
    ("giambelli_lift_f4_p4_g2_8.txt", ["chow", "giambelli-lift", *_P4, "--class", "g2^8"]),
    ("giambelli_lift_b3_point.txt", ["chow", "giambelli-lift", "--type", "B3", "--class", "[]"]),
    ("hasse_f4_p1.dot", ["hasse", *_P1]),
    ("chow_mult_f4_p1_h1_4_h1_4.txt", ["chow", "mult", *_P1, "--lhs", "h1^4", "--rhs", "h1^4"]),
    ("chow_mult_f4_p4_g1_4_g1_4.txt", ["chow", "mult", *_P4, "--lhs", "g1^4", "--rhs", "g1^4"]),
    ("chow_mult_b3_flag.txt", ["chow", "mult", "--type", "B3", "--lhs", "[s2 s3 s2 s1 s2 s3 s2]",
                               "--rhs", "[s1 s2 s3 s2 s1 s2 s3]"]),
    ("chow_mult_f4_p2_codim5_codim6.txt", [
        "chow", "mult", "--type", "F4", "--theta", "1,3,4",
        "--lhs", "[s2 s3 s1 s2 s3 s4 s3 s2 s3 s1 s2 s3 s4 s3 s1 s2 s3 s2 s1]",
        "--rhs", "[s3 s1 s2 s3 s4 s3 s2 s3 s1 s2 s3 s4 s3 s1 s2 s3 s2 s1]"]),
    ("verify_f4.txt", ["verify", "f4", "--eps", "both"]),
]
