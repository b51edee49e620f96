"""Post-selected SPAM error of the metastable sequence at high shot count.

Prints the per-stage retention and error rates with Wilson intervals, the
post-selected average error, and the analytic budget assembled from the
standalone optical misread rates plus metastable decay over the exposure
window (detection plus the readout transfer between the two state-sensitive
detections).
"""

import argparse

import spamsim as sp
from spamsim.channels import decay_probability


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--encoding", default="M", choices=sp.ENCODINGS)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--z", type=float, default=1.96)
    args = parser.parse_args(argv)

    model = sp.default_model()
    config = sp.ExperimentConfig(
        model=model, encoding=args.encoding, shots=args.shots, seed=args.seed
    )
    run = sp.run_experiment(config, workers=args.threads, collect_histograms=False)
    summary = sp.spam_summary(run, z=args.z)

    for state in ("zero", "one"):
        block = summary["states"][state]
        print(f"|{state}> ({block['shots']} shots,"
              f" rejected {100 * block['rejected_fraction']:.3f}%)")
        for stage, kept, rate, interval in zip(
            summary["stages"], block["kept"], block["error_rate"],
            block["error_interval"],
        ):
            if rate is None:
                print(f"  {stage:<5} kept {kept:>9}  error -")
                continue
            low, high = interval
            print(
                f"  {stage:<5} kept {kept:>9}  error {rate:.3e}"
                f"  [{low:.3e}, {high:.3e}]"
            )

    average = summary["average"]["error_rate"][-1]
    low, high = summary["average"]["error_interval"][-1]
    print(f"post-selected average error {average:.3e}  [{low:.3e}, {high:.3e}]")

    bright_err, dark_err = sp.optical_error_rates(model.detection)
    transfer = model.pulse_for(sp.B_1_M1, sp.A_2_0)
    exposure = model.detection.total_duration + transfer.t_pi
    eps_d = decay_probability(exposure, model.decay)
    budget = sp.detection_error_budget(bright_err, dark_err, eps_d)
    print(
        f"analytic budget {budget.average:.3e}"
        f" (optical {bright_err:.2e}/{dark_err:.2e}, decay {eps_d:.2e})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
