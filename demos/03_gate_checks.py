"""Transversal-gate condition checks on the three-copy stack and the
hexagonal color code, plus the rough-boundary merge algebra."""

from fractalcss.code import PauliOperator, css_from_complex
from fractalcss.colorcode import build_color_code_2d, check_transversal_s_colorcode
from fractalcss.complexes import code_lattice
from fractalcss.gates import (
    build_vasmer_browne_stack,
    check_transversal_ccz,
    conjugate_by_ccz,
    merge_rough,
    stabilizer_tags_near_holes,
)
from fractalcss.gf2 import Gf2Vector

print("three-copy stack, L = 2 and 3, no holes:")
for L in (2, 3):
    codes, align = build_vasmer_browne_stack(L)
    report = check_transversal_ccz(*codes, align)
    print(f"  L = {L}: {'all conditions PASS' if report.all_pass else 'FAIL'}")

print("\nsame stack with a central (m,m,m)-hole at L = 3:")
codes, align = build_vasmer_browne_stack(3, "center")
report = check_transversal_ccz(*codes, align)
near = stabilizer_tags_near_holes(align)
witnesses = [w for c in report.failures() for w in c.witnesses]
# a witness's X-check tags read "copy:Xrow"; "Xbar" tags name logicals
touch = all(any(t in near for t in w[:-1] if ":X" in str(t) and "bar" not in str(t))
            for w in witnesses)
print(f"  {len(witnesses)} failing triples, "
      f"{'every witness touches' if touch else 'some witness misses'} the hole boundary")

check = codes[0].x_checks[0]
ppo = conjugate_by_ccz(
    PauliOperator.x_type(Gf2Vector.from_indices(codes[0].n_qubits, check)), 0, align)
where = "on the hole boundary" if "0:X0" in near else "away from the hole"
print(f"  X check 0 of copy 1 (weight {len(check)}, {where}) conjugates to "
      f"X x {len(ppo.quadratic_cz)} CZ pairs, logical identity: {ppo.cz_identity}")

print("\nhexagonal color code, transversal S:")
cc = build_color_code_2d(1)
print(check_transversal_s_colorcode(cc).to_text().strip())

print("\nrough-boundary merge of two L=2 surface codes:")
a = css_from_complex(code_lattice(3, 2), 1)
b = css_from_complex(code_lattice(3, 2), 1)
result = merge_rough(a, b)
print(f"  k_merged = {result.k_merged}, parity identity "
      f"{'holds' if result.parity_identity else 'fails'} over "
      f"{len(result.interface_x_rows)} interface X stabilizers")
