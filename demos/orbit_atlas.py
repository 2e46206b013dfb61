"""Atlas of nilpotent orbits of so(p,2) for small p: signed Young
diagrams, their characteristics, and which orbits are even.

The only shape whose characteristic has an odd entry is
(2,2,1,...,1) -- exactly the shape that is never p-distinguished.

Run:  python3 demos/orbit_atlas.py
"""

from liepairs import characteristic, enumerate_dyo, forget_signs, is_even

for p in (2, 3, 4, 5):
    print("=" * 72)
    print(f"so({p},2): nilpotent orbits")
    print("=" * 72)
    for d in enumerate_dyo(p):
        cands = characteristic(forget_signs(d))
        even = any(is_even(cc) for cc in cands)
        numerals = ",".join(d.numerals) if d.numerals else "-"
        char_str = " or ".join(str(cc) for cc in cands)
        print(f"  {d.sign_string():<16} numeral {numerals:<6}"
              f" characteristic {char_str:<22} {'even' if even else 'ODD'}")
    print()
