# Comparing syndrome-coding protocols: rate versus efficiency
#
# Two numbers summarise a block protocol: the embedding rate ER = p/n
# (hidden bits per cover bit) and the embedding efficiency EF = p/rho
# (hidden bits per guaranteed flip).  The package bundles the published
# constants for three protocol families — BCH codes (B), cycle codes of
# graphs (C), augmented cycle codes (A) — and this demo recomputes both
# metrics from each row's (n, K, rho) and prints them side by side.
#
# Run me as:  python demos/04_protocol_comparison.py

from importlib import resources

from graphstego import (
    build_code,
    code_report,
    complete_graph,
    covering_radius_tjoin,
)

text = (
    resources.files("graphstego.data")
    .joinpath("reference_protocols.tsv")
    .read_text("utf-8")
)

print(f"{'n':>3} {'d':>2} {'family':>6} {'K':>3} {'rho':>6} "
      f"{'ER':>6} {'EF (per rho bound)':>20}")
for ln in text.splitlines():
    ln = ln.strip()
    if not ln or ln.startswith("#") or ln.startswith("n\t"):
        continue
    n, d, family, hidden, rho, _er, _ef = ln.split("\t")
    er = int(hidden) / int(n)
    ef_txt = "-".join(f"{int(hidden) / int(r):.2f}" for r in rho.split("-"))
    print(f"{n:>3} {d:>2} {family:>6} {hidden:>3} {rho:>6} {er:>6.2f} {ef_txt:>20}")

# The cycle-code rows (family C) trade worse worst-case efficiency for
# much higher rate at the same distance — visible at every n above.
#
# The constants above come from codes whose defining graphs are not
# part of the data set, so they cannot all be rebuilt here.  What we
# CAN rebuild live is the family of complete graphs:

print()
print("complete graphs, built and measured live:")
print(f"{'q':>2} {'n':>3} {'p':>2} {'rho':>3} {'ER':>6} {'EF':>6}")
for q in range(3, 8):
    code = build_code(complete_graph(q))
    rep = code_report(code, covering_radius_tjoin(code.graph))
    print(f"{q:>2} {rep.n_len:>3} {rep.p:>2} {rep.rho:>3} "
          f"{rep.embedding_rate:>6.2f} {rep.embedding_efficiency:>6.2f}")

# For K_q the covering radius is floor(q/2): the hardest terminal set
# is every vertex (q even) or all but one (q odd), and since every
# pair is adjacent the minimum T-join is a perfect matching on T.
