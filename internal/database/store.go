package database

// Store is *Database, the one fact-store type engines take. The root
// module spells it *Database everywhere; the alias exists only because
// the serving benchmark module (servebench/, frozen as a benchmark path
// in BENCHMARK.json) still names database.Store.
type Store = *Database
