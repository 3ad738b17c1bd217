#!/usr/bin/env python3
"""Watch the toy policy learn the look-then-transcribe behavior.

The policy is a 54-way categorical over behavior tuples. Before training,
each (sample, tuple) pair is rendered once into a concrete rollout and scored
once by the reward engine; each step then looks up its group's rewards in
that table, and the logits follow the group-relative likelihood-ratio
gradient. Under equal weights the all-good tuple is the unique optimum, and
the probability mass piles onto it.
"""

from vapokit.grpo import OPTIMAL_TUPLE, SimConfig, expected_grades, train

config = SimConfig(steps=800, group_size=8, lr=0.1, seed=0, samples="builtin:grpo_samples.jsonl")
trace = train(config)

print(f"optimal tuple: {OPTIMAL_TUPLE}")
print(f"{'step':>5} {'E[reward]':>10} {'P(optimal)':>11}")
for i in range(0, config.steps, 100):
    step = trace.steps[i]
    print(f"{step.step:5d} {step.expected_reward:10.3f} {step.p_optimal:11.5f}")
final = trace.final
print(f"{final.step:5d} {final.expected_reward:10.3f} {final.p_optimal:11.5f}")

grades = expected_grades(trace.final_logits)
print("\nconverged expected grades:")
for key, value in grades.items():
    print(f"  {key:12s} {value:.4f}")
