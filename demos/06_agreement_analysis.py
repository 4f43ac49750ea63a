"""How much do pianists agree with each other?

Given several annotators per piece we can measure the j-way match rate
(the fraction of notes on which j annotators all agree), compare its
decay against an independent per-note reference model, fit the decay
with a power law, and histogram how many distinct finger choices each
note attracts.
"""

from pathlib import Path

from pianofinger.agreement import analyze_sets, random_model_match
from pianofinger.dataset import load_ground_truth_sets

CORPUS_DIR = Path(__file__).resolve().parents[1] / "data" / "sample_corpus"

gt_sets = load_ground_truth_sets(CORPUS_DIR, min_annotators=2)
print(f"{len(gt_sets)} piece(s) with two or more annotators")

report = analyze_sets(gt_sets)
print("\nj-way match rates vs the two-symbol random reference:")
for j in sorted(report.match_rates):
    print(
        f"  j={j}: measured {report.match_rates[j]:.3f}"
        f"   random model {report.random_reference[j]:.3f}"
    )
c, gamma = report.power_fit
print(f"power-law fit: M_j ~ {c:.3f} * j^-{gamma:.3f}")

print("\nfinger-choice multiplicity per note:")
for k, proportion in report.note_multiplicity.items():
    print(f"  {k} choice(s): {100 * proportion:.1f}%")

# The reference model in isolation: if two annotators agree on 68% of
# notes and choices were independent two-way coin flips, three would
# agree on 52%.
print("\nindependent-choice reference:", random_model_match(0.68, 3))

hist = analyze_sets([gt_sets[0]]).pair_multiplicity
print("choices per consecutive same-hand note pair:", hist)
