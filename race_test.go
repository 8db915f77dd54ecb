//go:build race

package maxrs

// raceDetector reports a build with the race detector, whose slowdown
// would take the full shard oracle past the test timeout; the oracle then
// checks every 10th of its datasets, and the full oracle runs without it.
const raceDetector = true
