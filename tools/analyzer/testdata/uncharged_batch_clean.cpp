// fixture-path: src/core/fixture_batch_clean.cpp
// expect-clean
struct FixtureEvaluator {
  void bind_control(const AttackControl* control);
  double eval_swap_batch(int count);
};

// Binding the AttackControl delegates charging to the evaluator shell:
// every row eval_swap_batch evaluates charges the bound QueryBudget, so
// the chain is charged even though no literal charge() call appears on
// it.
double fixture_entry(FixtureEvaluator& evaluator,
                     const AttackControl& control) {
  evaluator.bind_control(&control);
  return evaluator.eval_swap_batch(8);
}
