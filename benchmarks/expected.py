"""Pinned expectations of the workloads, importable without symop."""

# instance count of every catalog entry at Bounds(max_ab=3, max_g=5);
# 33,495 in total
PINNED_INSTANCES = {
    "thm_main_1": 931, "thm_main_2": 931, "thm_main_3": 931,
    "thm_main_4": 931, "thm_main_5": 931, "thm_main_6": 931,
    "thm_main_cor_1": 931, "thm_main_cor_2": 931, "thm_main_cor_3": 931,
    "thm_main_cor_4": 931, "thm_main_cor_5": 931, "thm_main_cor_6": 931,
    "commutators_1": 931, "commutators_2": 931, "commutators_3": 931,
    "foulkes": 518, "littlewood": 518, "similar": 518,
    "reverse_foulkes": 931, "gessel_1": 304, "gessel_2": 171,
    "gessel_3": 171, "kb1": 19, "straightcorners": 19, "kbk_ud": 57,
    "kbf_ud": 133, "tworow_hook": 1596, "littlewood_sum": 138,
    "skew_corners": 65, "nokronecker": 65, "tabmanip2": 14307,
}

# rank of the 49 U_a D_b words, and of the 49 D_b U_a words (|a|, |b| <= 3),
# truncated at domain degree 7
RANK_DEGREE = 7
EXPECTED_RANK = 49

