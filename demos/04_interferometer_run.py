"""End-to-end simulated run of the noisy polarization interferometer.

Pipeline: verify the wave-plate program that realizes the four-unitary
noise mixture, simulate photon counting fringes for each (preparation,
filter) cell, fit the fringes, and feed the fitted fractional visibilities
into the certificate machinery. With a fringe-contrast imperfection of 0.96
the four-term bound lands near 0.96, mirroring what the measured records in
demo 03 give.
"""

from pathlib import Path

import whichway as ww

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)
SEED = 2024

# 1. The plate program: four rows of half/quarter-wave settings, one per
#    arm-unitary pair. The verifier checks every row against its target,
#    including the (Y,-Y) sign, under the package's one Jones convention
#    (quarter plates straddling both arms, circular-left frame).
report = ww.verify_noise_program(ww.pauli_noise_program())
print(f"plate program verified (max deviation {report.max_deviation:.1e})")
print(f"  active convention: {report.convention}")
mixture = ww.program_channel(report)

# 2. Simulate one fringe scan and look at the raw counts.
preps, filters = ww.rectilinear_preparations(), ww.rectilinear_filters()
ds = ww.simulate_fringes(
    mixture, preps["hh"], filters["hh"],
    shots_per_phase=10_000, contrast=0.96, seed=(SEED, 0),
)
ww.write_dataset_csv(ds, OUT / "fringes_hh_hh.csv")
fit = ww.fit_fringes(ds)
print()
print(f"example cell mu=hh nu=hh ({ds.shots_per_phase} shots x {len(ds.phases)} phases)")
print(ww.fit_report(fit))
print(f"counts written to {OUT / 'fringes_hh_hh.csv'}")

# 3. The full 16-cell experiment, fitted records, and both bounds.
records = ww.run_experiment(mixture, shots_per_phase=10_000, contrast=0.96, seed=SEED)
ww.write_records_csv(records, OUT / "fitted_records.csv")
print()
print("fitted records (bright cells):")
for r in records:
    if abs(r.visibility) > 0.1:
        print(f"  mu={r.mu} nu={r.nu}: p = {r.p:.3f}, |V| = {abs(r.visibility):.3f} "
              f"+/- {r.sigma_v:.3f}")

cert = ww.swap_certificate(records)
print()
print("four-term bound from the simulated run:")
print(f"  V_G >= {cert.vg_lower:.4f} +/- {cert.sigma_vg:.4f}")
print(f"  D   <= {cert.d_upper:.4f} +/- {cert.sigma_d:.4f}")

row = [r for r in records if r.mu == "hh" and r.nu in ("hh", "vv")]
single = ww.single_preparation_certificate("hh", row)
print("single-preparation bound (mu=hh):")
print(f"  V_G >= {single.vg_lower:.4f}  ->  D <= {single.d_upper:.4f}")
print()
print("note: with only a contrast imperfection the complementary-filter cell")
print("mu=hh nu=vv has no fringe, so the single-preparation bound sits near")
print("contrast/2; the measured records in demo 03 show residual hardware")
print("coherence there and certify 0.58 instead.")

# 4. Detector-efficiency correction: unequal efficiencies are equalized by
#    binomial resampling before fitting. run_experiment does the same when
#    efficiencies differ: it draws every detector at the lowest efficiency,
#    which is resampling in one step.
uneven = ww.simulate_fringes(
    mixture, preps["hh"], filters["hh"], shots_per_phase=10_000,
    efficiencies=(0.95, 0.75, 0.9, 0.85), contrast=0.96, seed=(SEED, 1),
)
evened = ww.binomial_resample(uneven, 0.75, seed=(SEED, 2))
print()
print(f"efficiency correction: raw totals {int(uneven.counts.sum())} -> "
      f"resampled {int(evened.counts.sum())} at common efficiency 0.75")
print(ww.fit_report(ww.fit_fringes(evened)))
