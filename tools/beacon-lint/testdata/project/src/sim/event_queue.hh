// Fixture: a miniature EventQueue at the real header path, included
// by the layer-DAG fixtures above it.

#ifndef FIXTURE_SIM_EVENT_QUEUE_HH
#define FIXTURE_SIM_EVENT_QUEUE_HH

#include "common/util.hh"

namespace fixture
{

class EventQueue
{
  public:
    unsigned long now() const { return tick; }
    void schedule(unsigned long when, int token);
    void scheduleIn(unsigned long delta, int token);
    void cancel(int token);

  private:
    unsigned long tick = 0;
    int next_token = 0;
};

} // namespace fixture

#endif // FIXTURE_SIM_EVENT_QUEUE_HH
