package memo

// The pack codec, for the fuzz target in package memo_test, which seeds
// itself with a pack from a real run and so imports internal/experiments.
var (
	EncodePack = encodePack
	DecodePack = decodePack
	ParseTable = parseTable
)
