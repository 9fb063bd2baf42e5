// Command app uses the fixture library the way a real caller would.
package main

import (
	"encoding/json"
	"fmt"
	"io"

	"fixture/internal/lib"
)

func main() {
	var br io.ByteReader = &lib.Reader{}
	c, _ := br.ReadByte()
	out, _ := json.Marshal(lib.Config{})
	fmt.Println(lib.Used(), c, string(out))
}
