#!/usr/bin/env python3
"""Reproduce the worked examples end to end and print the tables.

For each named model the Jordan type is extracted from the matrix oracle,
compared against the closed form, and (where the module generates a tube)
propagated along the component with the inverse problem solved back.

Run:  python3 scripts/worked_examples.py [--p 5] [--ql-max 6]
"""

import argparse

from jordanquiver.components import solve_multiplicities, tube_profile_from_seed
from jordanquiver.jtypes import JordanType, pi_point_sweep, restrict
from jordanquiver.oracle import (
    abelian_rank2_models,
    ga2_model,
    heisenberg_model,
    jordan_type_of,
    sl2s_models,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def heisenberg_section(p, ql_max):
    banner(f"Heisenberg induced module, p = {p}")
    seed = jordan_type_of(heisenberg_model(p))
    print(f"seed type (matrix oracle): {seed}")
    n = [1] + [0] * (p - 2)
    print(f"tube with multiplicities n = {tuple(n)}:")
    print("ql\ttype")
    profile = tube_profile_from_seed(seed, n, include_p=True)
    for ql in range(1, ql_max + 1):
        print(f"{ql}\t{profile.jordan_type_at(ql)}")
    recovered = solve_multiplicities(profile).multiplicities
    print(f"inverse problem recovers n = {recovered}")


def rank2_section(p):
    banner(f"rank-2 abelian Lie algebra, p = {p}")
    alpha, beta = abelian_rank2_models(p)
    print(f"generator itself:      {jordan_type_of(alpha)}")
    print(f"perturbed generator:   {jordan_type_of(beta)}")


def ga2_section(p):
    banner(f"height-2 additive kernel, p = {p}")
    _, beta = ga2_model(p)
    got = jordan_type_of(beta)
    closed = restrict(p, 2, p).with_modulus(p)
    flag = "agrees with" if got == closed else "DISAGREES with"
    print(f"perturbed generator: {got} ({flag} the block-splitting formula)")


def sl2_section(p):
    banner(f"restricted sl(2) Verma modules, p = {p}")
    for i in range(1, p):
        e_model, f_model = sl2s_models(p, i)
        print(
            f"highest weight {i - 1}: e-action {jordan_type_of(e_model)}, "
            f"f-action {jordan_type_of(f_model)}"
        )


def sweep_section(p):
    banner(f"probe-power sweeps, p = {p}")
    for n in range(1, p + 1):
        types = pi_point_sweep(JordanType.block(p, n))
        shown = ", ".join(
            str(t) if not t.is_zero() else "(projective)"
            for t in sorted(types, key=lambda t: (t.dimension(), t.mult))
        )
        print(f"[{n}]: {len(types)} stable types: {shown}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--ql-max", type=int, default=6)
    args = parser.parse_args()
    heisenberg_section(args.p, args.ql_max)
    rank2_section(args.p)
    ga2_section(args.p)
    sl2_section(args.p)
    sweep_section(args.p)


if __name__ == "__main__":
    main()
