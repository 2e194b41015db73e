# Coset leaders: the cheapest error pattern per syndrome
#
# To hide p bits per block we need, for every possible syndrome, the
# minimum-weight word producing it (the coset leader).  The largest
# leader weight is the covering radius — the worst-case number of bit
# flips per block.
#
# Two independent ways to find each coset's minimum weight, and so to
# build the same table:
#   * exhaustive search over syndromes reachable with 1, 2, ... flips, and
#   * one minimum T-join per syndrome: a syndrome selects tree edges,
#     their odd-degree vertices form an even terminal set T, and the
#     cheapest word with that syndrome is a minimum T-join of the
#     graph (terminals paired up along shortest paths).
#
# Run me as:  python demos/02_coset_leaders_and_covering_radius.py

import numpy as np

from graphstego import (
    build_coset_table_bruteforce,
    build_coset_table_tjoin,
    bundled_codebook_text,
    code_from_codebook,
    covering_radius_tjoin,
    minimum_t_join,
    syndrome_to_terminals,
)

code = code_from_codebook(bundled_codebook_text("k5"))
p = code.n_len - code.k

brute = build_coset_table_bruteforce(code)
joined = build_coset_table_tjoin(code)

print("syndrome  leader (exhaustive)  weight  terminals T")
for idx in range(1 << p):
    s = f"{idx:0{p}b}"  # syndrome bits, bit 0 first
    leader = brute.leader(idx)
    edges = [f"e{j + 1}" for j in np.nonzero(leader)[0]]
    terms = sorted(syndrome_to_terminals(code, s))
    print(
        f"  {s}    {' + '.join(edges) if edges else '(none)':20s}"
        f" {int(leader.sum())}      {terms if terms else '{}'}"
    )

print()
print(f"covering radius (exhaustive table): {brute.rho}")
print(f"covering radius (T-join table):     {joined.rho}")
print(f"covering radius (T-join maximum):   {covering_radius_tjoin(code.graph)}")

# The two builders find every coset's minimum weight independently,
# then pick the same leader of that weight (the lexicographically
# least), so the whole tables agree:

assert np.array_equal(brute.leaders, joined.leaders)
print("leader tables identical across builders: True")

# --- the T-join view, step by step --------------------------------------
#
# Take syndrome 0110.  Its bits select tree edges e5 (2-3) and e10
# (3-4); vertex 3 is hit twice, so the terminals are {2, 4}.  The
# cheapest edge set with odd degree exactly there is the single edge
# 2-4, which is e6 — one flip.

s = "0110"
terms = syndrome_to_terminals(code, s)
join = minimum_t_join(code.graph, terms)
print()
print(f"syndrome {s}: terminals {sorted(terms)}, "
      f"T-join edges {[f'e{j + 1}' for j in np.nonzero(join)[0]]}")

# And the worst case for this code: syndrome 0101 selects e5 (2-3) and
# e7 (4-5), four odd vertices, which no single edge can fix — the
# covering radius 2 comes from exactly these cosets.

s = "0101"
terms = syndrome_to_terminals(code, s)
join = minimum_t_join(code.graph, terms)
print(f"syndrome {s}: terminals {sorted(terms)}, "
      f"T-join edges {[f'e{j + 1}' for j in np.nonzero(join)[0]]}")
