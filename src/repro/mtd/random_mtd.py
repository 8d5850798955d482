"""Random-perturbation MTD baseline (prior work).

The prior MTD proposals the paper compares against ([11]-[13]) perturb a
random subset of the D-FACTS-equipped lines by small random amounts and rely
on the "keyspace" of such perturbations for security.  Section VII-B of the
paper evaluates 500 random perturbations constrained to be within 2 % of the
optimal reactance values and shows that fewer than 10 % of them achieve
``η'(0.9) ≥ 0.9``.

This module reproduces that baseline: it draws random perturbations,
evaluates their effectiveness with the same ensemble-based metric used for
the designed MTD, and summarises the keyspace statistics of Fig. 7 / Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import MTDDesignError
from repro.grid.network import PowerNetwork
from repro.mtd.effectiveness import EffectivenessEvaluator, EffectivenessResult
from repro.mtd.perturbation import ReactancePerturbation
from repro.mtd.subspace import subspace_angle
from repro.utils.rng import as_generator, spawn_generators


@dataclass(frozen=True)
class RandomMTDSample:
    """One random perturbation together with its evaluation."""

    perturbation: ReactancePerturbation
    effectiveness: EffectivenessResult
    spa: float


@dataclass
class RandomMTDKeyspace:
    """Statistics over a keyspace of random MTD perturbations."""

    samples: list[RandomMTDSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def eta_values(self, delta: float) -> np.ndarray:
        """``η'(δ)`` of every sampled perturbation."""
        return np.array([sample.effectiveness.eta(delta) for sample in self.samples])

    def fraction_meeting(self, delta: float, eta_target: float = 0.9) -> float:
        """Fraction of the keyspace with ``η'(δ) ≥ eta_target`` (Fig. 8)."""
        if not self.samples:
            return 0.0
        return float(np.mean(self.eta_values(delta) >= eta_target))

    def spa_values(self) -> np.ndarray:
        """Achieved SPA of every sampled perturbation."""
        return np.array([sample.spa for sample in self.samples])


class RandomMTDBaseline:
    """Generator and evaluator of random MTD perturbations.

    Parameters
    ----------
    network:
        The grid under study.
    evaluator:
        The effectiveness evaluator (fixes the attacker's knowledge and the
        attack ensemble, so that random and designed MTD are judged against
        the same attacks).
    max_relative_change:
        Maximum relative reactance change of each perturbed line (the paper
        constrains the random perturbations to within 2 % of the optimal
        values, i.e. 0.02).
    perturb_all_dfacts:
        When true every D-FACTS line is perturbed; otherwise a random
        non-empty subset is chosen per sample, as in the keyspace
        formulations of prior work.
    """

    def __init__(
        self,
        network: PowerNetwork,
        evaluator: EffectivenessEvaluator,
        max_relative_change: float = 0.02,
        perturb_all_dfacts: bool = True,
    ) -> None:
        if max_relative_change <= 0:
            raise MTDDesignError(
                f"max_relative_change must be positive, got {max_relative_change}"
            )
        if not network.dfacts_branches:
            raise MTDDesignError("the network has no D-FACTS devices; MTD is impossible")
        self._network = network
        self._evaluator = evaluator
        self._max_change = float(max_relative_change)
        self._perturb_all = bool(perturb_all_dfacts)

    # ------------------------------------------------------------------
    def draw_perturbation(
        self, seed: int | np.random.Generator | None = None
    ) -> ReactancePerturbation:
        """Draw one random perturbation from the keyspace."""
        rng = as_generator(seed)
        dfacts = np.array(self._network.dfacts_branches, dtype=int)
        if self._perturb_all:
            selected = dfacts
        else:
            count = int(rng.integers(1, dfacts.size + 1))
            selected = rng.permutation(dfacts)[:count]
        return ReactancePerturbation.random(
            self._network,
            max_relative_change=self._max_change,
            branch_indices=selected,
            base_reactances=self._evaluator.base_reactances,
            seed=rng,
        )

    def evaluate_sample(
        self, perturbation: ReactancePerturbation
    ) -> RandomMTDSample:
        """Evaluate one perturbation against the shared attack ensemble."""
        effectiveness = self._evaluator.evaluate(perturbation.perturbed_reactances)
        spa = subspace_angle(
            self._evaluator.attacker_subspace, perturbation.post_measurement_matrix()
        )
        return RandomMTDSample(
            perturbation=perturbation, effectiveness=effectiveness, spa=spa
        )

    def sample_keyspace(
        self,
        n_samples: int,
        seed: int | np.random.Generator | None = 0,
    ) -> RandomMTDKeyspace:
        """Draw and evaluate ``n_samples`` random perturbations.

        The paper's Fig. 8 uses 500 samples; benchmark defaults are smaller
        for runtime and can be raised through an environment knob.
        """
        if n_samples <= 0:
            raise MTDDesignError(f"n_samples must be positive, got {n_samples}")
        keyspace = RandomMTDKeyspace()
        for child in spawn_generators(seed, n_samples):
            perturbation = self.draw_perturbation(seed=child)
            keyspace.samples.append(self.evaluate_sample(perturbation))
        return keyspace


__all__ = ["RandomMTDBaseline", "RandomMTDKeyspace", "RandomMTDSample"]
