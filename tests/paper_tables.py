"""The paper's parameter counts written out label by label, as reference
data for the per-family tables of `dawcox.heckeparams`: the rules must
reproduce every entry."""

# Table 1: the generic number of parameters of each registry label.
GENERIC_COUNTS = {
    "dddotA1": 4, "dddotA1star": 3, "dddotA2": 1, "dddotA3": 1, "dddotA4": 1,
    "dddotB3": 2, "dddotB4": 2, "dddotC2": 5, "dddotC3": 5,
    "dddotC2star": 4, "dddotC3star": 4, "dddotD4": 1, "dddotD5": 1,
    "dddotE6": 1, "dddotE7": 1, "dddotE8": 1, "dddotF4": 2, "dddotG2": 2,
    "ddotB3": 3, "ddotB4": 3, "ddotC3": 3, "ddotC4": 3,
    "ddotB2": 4, "ddotF4": 2, "ddotG2": 2,
}

# Table 4: (affine root system, rank, number of parameters after the
# specialization).  The rank-one rows are the collapses noted in the
# text: (Cn^,Cn) specializes dddotA1, A2n(2) and (Cn^,BCn) dddotA1star.
SPECIALIZATION_COUNTS = (
    ("A1(1)", 1, 1),
    ("Cn(1)", 2, 3),
    ("Cn(1)", 3, 3),
    ("(BCn,Cn)", 2, 4),
    ("(BCn,Cn)", 3, 4),
    ("(Cn^,Cn)", 2, 5),
    ("(Cn^,Cn)", 3, 5),
    ("(Cn^,Cn)", 1, 4),
    ("A2n(2)", 2, 3),
    ("A2n(2)", 1, 2),
    ("(Cn^,BCn)", 2, 4),
    ("(Cn^,BCn)", 1, 3),
    ("A3(2)", None, 3),
    ("(C2,C2^)", None, 4),
    ("Dn+1(2)", 3, 2),
    ("Dn+1(2)", 4, 2),
    ("A2n-1(2)", 3, 2),
    ("A2n-1(2)", 4, 2),
    ("(Bn,Bn^)", 3, 3),
    ("(Bn,Bn^)", 4, 3),
)

# Table 5: each nonreduced system of Table 4 and its reduced system.
NONREDUCED = {
    "(BCn,Cn)": "Cn(1)",
    "(Cn^,BCn)": "A2n(2)",
    "(Bn,Bn^)": "A2n-1(2)",
    "(Cn^,Cn)": "Cn(1)",
    "(C2,C2^)": "A3(2)",
}


def row_name(system, n):
    """How the params check names a Table 4 row."""
    return system if n is None else f"{system} n={n}"
