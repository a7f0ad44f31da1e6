package provenance

// EventsHint exposes eventsHint to the external model test.
var EventsHint = eventsHint
