"""States as block-encodings: the composition calculus.

Builds purified access oracles for a pair of random states, then walks
through the basic manipulations: extracting the encoded block, unitary
dilation, evolution B rho B^dag, convex mixtures, and the (HX, H) linear
combination that block-encodes (rho - sigma)/2.  The calculus computes
operators and costs only; each circuit is built by ``blockenc.circuits``
from the operator's construction record when the demo checks it.
"""

import numpy as np

from blockenc import (StatePreparationPair, block_encode_density, circuits, dilate,
                      evolve, lcu, linear_combination_density, purification_of)
from blockenc.fixtures import ginibre_state, haar_unitary
from blockenc.numerics import spectral_norm

rng = np.random.default_rng(7)
rho = ginibre_state(4, 2, rng)
sigma = ginibre_state(4, 3, rng)

o_rho = purification_of(rho, label="rho")
o_sigma = purification_of(sigma, label="sigma")
print("oracle registers: system =", o_rho.system_qubits,
      "block =", o_rho.block_ancillas, "purifying =", o_rho.purifying_ancillas)
print("round trip |extract - rho| =",
      f"{spectral_norm(circuits.extract(o_rho) - rho):.2e}")

ube = block_encode_density(o_rho)
print("\nblock-encoding of rho: scale =", ube.scale,
      "declared ancillas =", ube.ancillas,
      "block deviation =", f"{spectral_norm(ube.scale * circuits.block(ube) - rho):.2e}")
print("cost so far:", dict(ube.cost.queries))

b = 0.8 * haar_unitary(4, rng)
evolved = evolve(o_rho, dilate(b))
print("\nevolution B rho B^dag deviation =",
      f"{spectral_norm(evolved.encoded.matrix - b @ rho @ b.conj().T):.2e}")
print("its circuit (V x I)(U x I) prepares it within",
      f"{spectral_norm(circuits.extract(evolved) - b @ rho @ b.conj().T):.2e}")
print("trace shrinks to", f"{evolved.encoded.trace:.4f}",
      "<= ||B||^2 =", f"{np.linalg.norm(b, 2) ** 2:.4f}")

mix = linear_combination_density([0.5, 0.5], [o_rho, o_sigma], label="mu")
print("\nconvex mixture (rho + sigma)/2 deviation =",
      f"{spectral_norm(mix.encoded.matrix - (rho + sigma) / 2):.2e}")

pair = StatePreparationPair.plus_minus()
w = lcu(pair, [dilate(rho), dilate(sigma)])
nu = (rho - sigma) / 2.0
print("\n(HX, H) combination: scale =", w.scale,
      "block = nu deviation =", f"{spectral_norm(circuits.block(w) - nu):.2e}")
