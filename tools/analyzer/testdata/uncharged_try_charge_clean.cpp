// fixture-path: src/core/fixture_try_charge_clean.cpp
// expect-clean
struct FixtureModel { double predict(int); };

// Admission through AttackControl::try_charge discharges the chain: the
// forward runs only once the budget has admitted it.
double fixture_entry(FixtureModel& model, const AttackControl& control) {
  if (!control.try_charge()) return 0.0;
  return model.predict(1);
}
