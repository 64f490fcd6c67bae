"""Walk through the full pipeline at a single operating point.

Two optomechanical cavities, each with a movable end mirror, exchange
photons at rate lambda and are driven by two-mode squeezed light on the red
sideband.  We build the parameter set, derive the internal quantities,
assemble the drift/noise matrices, solve for the steady-state covariance,
and evaluate the mirror-mirror correlation measures.
"""

import numpy as np

import duomech as dm

TWO_PI = 2 * np.pi

params = dm.PhysicalParams(
    omega_m=TWO_PI * 947e3,      # mechanical frequency, rad/s
    gamma=TWO_PI * 140.0,        # mechanical damping
    mass=145e-12,                # 145 ng mirrors
    cavity_length=25e-3,
    omega_c=TWO_PI * 5.26e14,    # cavity frequency
    omega_l=TWO_PI * 2.82e14,    # laser frequency
    kappa=TWO_PI * 14000.0,      # cavity linewidth
    temperature=1e-4,            # 0.1 mK baths
    squeezing_r=1.0,
    hopping_lambda=0.2 * TWO_PI * 14000.0,   # xi = 0.2
    cooperativity=32.11,
)

derived = dm.derive(params)
print("derived quantities")
print(f"  thermal occupancy      n_th = {derived.n_th:.4f}")
print(f"  squeezed moments       N = {derived.n_sq:.4f}, M = {derived.m_sq:.4f}")
print(f"  many-photon coupling   G = {derived.coupling:.4g} rad/s")
print(f"  cooperativity          C = {derived.cooperativity:.4g}")
print(f"  hopping strength       xi = {derived.xi:.3f}")

# the drive needed to reach this cooperativity
power = dm.power_from_cooperativity(params)
print(f"  pump power for C       {power * 1e6:.3f} uW")

matrices = dm.system_matrices(derived)
report = dm.check_stability(matrices.drift)
print(f"\nstability: {report.verdict} (max Re eig = {report.max_real:.4g} rad/s)")

state = dm.solve_lyapunov(matrices)
print(f"Lyapunov residual: {state.residual:.2e}")
print(f"symplectic spectrum of the 8x8 state: "
      f"{np.round(dm.symplectic_spectrum(state.full), 6)}")

mech = state.mechanical_block
print("\nmirror-mirror covariance block:")
with np.printoptions(precision=6, suppress=True):
    print(mech)
print(f"  sigma1  (variance)             = {mech[0, 0]:.6f}")
print(f"  sigma12 (intra-mode q-Y)       = {mech[0, 1]:.6f}")
print(f"  sigma13 (cross-mode, +q/-Y)    = {mech[0, 2]:.6f}")

measures = dm.correlation_report(dm.TwoModeCovariance.from_matrix(mech))
print("\ncorrelation measures (nats)")
print(f"  Gaussian steering     S   = {measures.steering_ab:.6f}")
print(f"  logarithmic negativity E_N = {measures.log_negativity:.6f}  "
      f"(nu_minus = {measures.nu_minus:.6f}, entangled: {measures.nu_minus < 0.5})")
print(f"  Gaussian discord      D   = {measures.discord:.6f}")
