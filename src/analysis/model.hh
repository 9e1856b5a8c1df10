/**
 * @file
 * The paper's analytical model of staged emulation (Section 3.2).
 *
 *   Eq. 1: translation overhead = M_BBT * Delta_BBT + M_SBT * Delta_SBT
 *   Eq. 2: N * t_b = (N + Delta_SBT) * (t_b / p)
 *          =>  N = Delta_SBT / (p - 1)
 *
 * With the measured constants (Delta_SBT = 1152 x86 instructions,
 * p = 1.15), Eq. 2 gives the hot threshold N = 1200/0.15 = 8000 the
 * VM systems use.
 */

#ifndef CDVM_ANALYSIS_MODEL_HH
#define CDVM_ANALYSIS_MODEL_HH

namespace cdvm::analysis
{

/** Eq. 2: breakeven execution count for hotspot optimization. */
inline double
hotThreshold(double delta_sbt_x86, double speedup_p)
{
    return delta_sbt_x86 / (speedup_p - 1.0);
}

/** Eq. 2 instantiated with the paper's constants (rounded inputs). */
inline double
paperHotThreshold()
{
    return hotThreshold(1200.0, 1.15); // = 8000
}

/** Eq. 1: total translation overhead in native instructions. */
inline double
translationOverhead(double m_bbt, double delta_bbt, double m_sbt,
                    double delta_sbt)
{
    return m_bbt * delta_bbt + m_sbt * delta_sbt;
}

/** The Section 3.2 instantiation of Eq. 1. */
struct Eq1Breakdown
{
    double bbtComponent; //!< native instructions spent in BBT
    double sbtComponent; //!< native instructions spent in SBT
    double total() const { return bbtComponent + sbtComponent; }
};

/**
 * Paper numbers: M_BBT = 150 K, M_SBT = 3 K, Delta_BBT = 105,
 * Delta_SBT = 1674 => 15.75 M vs 5.02 M native instructions.
 */
inline Eq1Breakdown
paperEq1(double m_bbt = 150e3, double m_sbt = 3e3,
         double delta_bbt = 105.0, double delta_sbt = 1674.0)
{
    return Eq1Breakdown{m_bbt * delta_bbt, m_sbt * delta_sbt};
}

} // namespace cdvm::analysis

#endif // CDVM_ANALYSIS_MODEL_HH
