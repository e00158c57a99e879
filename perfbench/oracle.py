"""Values printed in the paper, restated here so that the checkers do not
read them from the program.  Laurent polynomials in A are written as the
program prints them; level-5 values live in k_5 (A a primitive 10th root
of unity)."""

# Prop 5.10: Gamma_5(D_(5n+k)(U)) = x^2 + c1 x + c0 for k = 1..4, x - 1 at k = 0
PROP510 = {0: ("-1", None),
           1: ("1", "-A - A^-1"),
           2: ("A^-1", "-1 - A^-1"),
           3: ("A^-1", "-1 - A^-2"),
           4: ("A^-2", "-A^-1")}

# the printed Gamma_5 tables of the companions: (c0, c1) of x^2 + c1 x + c0
GAMMA5 = {
    "RT": [("1 + 2*A^2 - 2*A^3", "-2 + A - 2*A^2 + A^3"),
           ("-A^3", "-2 + A^3"),
           ("1 + A - A^2", "-1 + A - A^2 + 2*A^3"),
           ("1 - 2*A - A^3", "-1 + A"),
           ("-A + A^2 + A^3", "-A")],
    "LT": [("2 - 2*A - A^3", "A^3"),
           ("-1 - A + A^2", "-1 + A - A^2"),
           ("1 + 2*A^2 - A^3", "-1 - A"),
           ("A - A^2 - A^3", "-2 + A - 2*A^2 + 2*A^3"),
           ("1", "-2 + A + A^3")],
    "F8": [("-3 + 2*A - 2*A^2 + 3*A^3", "-A^2"),
           ("3 + 2*A^2 - A^3", "-2 - A^2"),
           ("1 - 2*A - A^3", "-2 - A^2 + 2*A^3"),
           ("1 + 2*A^2 - A^3", "-2 + 2*A - A^2 + 2*A^3"),
           ("1 - 2*A - 3*A^3", "A^2")],
    "RT#LT": [("-6 + 4*A - 4*A^2 + 6*A^3", "-A + A^2 - 2*A^3"),
              ("6 + A + A^2", "-1 - A - 2*A^2 + A^3"),
              ("1 - 5*A + A^2 - 2*A^3", "-4 + 2*A - 2*A^2 + 2*A^3"),
              ("2 - A + 5*A^2 - A^3", "-1 + A^2 + 2*A^3"),
              ("-A - A^2 - 6*A^3", "2*A - A^2 + A^3")],
}

# Example 4.5: Q(T), B(T), D(L) and Gamma(L) = x^2 + G1 x + D(L)
EX45_Q = [["-1 - A^-4", "-A^-2 + A^6"],
          ["A^-10 - A^-6 + 3*A^-2 + A^2 - A^6 + 2*A^10 - A^14",
           "A^-12 - A^-8 + 2 - 2*A^4 + A^12 - A^16"]]
EX45_B = [["-A^-8 - 2*A^-4 - 2 - 2*A^4 - A^8", "A^2 + 2*A^6 + A^10"],
          ["A^-10 + 3*A^-6 + 4*A^-2 + 4*A^2 + 3*A^6 + A^10",
           "A^-16 - A^-8 - A^-4 - 2 - 2*A^4 - 2*A^8 - A^20"]]
EX45_D = "-A^-16 + A^-12 + 2 - 2*A^4 - A^16 + A^20"
EX45_G1 = "-A^-12 + A^-8 + A^-4 - 1 + 2*A^4 - A^12 + A^16"
EX45_WRAPPING = 4

# cover values <S^3(D_(-1)(U))_d>_5 for d = 1..15 (the RT cycle)
RT_COVER_CYCLE = ["-A^4", "A^3", "2*A^2", "A", "-1", "-2*A^-1", "A^3", "-A^2",
                  "-2*A", "-1", "A^-1", "-2*A^3", "-A^2", "A", "2"]

# d = 17 values of the 3-twisted double at p = 5: plain and branched
# (eta-normalised)
COVERS_81_D17 = "188 + 152*A + 136*A^2"
BRANCHED_81_D17 = "1175 + 762*A + 1123*A^2"

# the connected sum D_1(U) # D_1(U) at p = 5: Gamma and its eigenvalues
# (x - 1)^3 (x^2 - (A^2 + A^-2) x + 1); eigenvalues 1, 1, 1, exp(+-2 pi i/5)
F8F8_FACTORS = [("-1", "1"), ("-1", "1"), ("-1", "1"),
                ("1", "-A^2 - A^-2", "1")]
F8F8_EIGEN_TURNS = (0, 0, 0, 1 / 5, -1 / 5)
