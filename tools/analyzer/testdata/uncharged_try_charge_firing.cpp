// fixture-path: src/core/fixture_try_charge_firing.cpp
// expect: uncharged-forward@9
struct FixtureModel { double predict(int); };

// A name that merely ends in "charge" is not the admission primitive: the
// forward below is still unaccounted.
double fixture_entry(FixtureModel& model, const AttackControl& control) {
  control.retry_charge();
  return model.predict(1);
}
